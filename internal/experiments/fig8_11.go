package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// StartupRow is one point of Fig 8: real time to start N cloned
// webserver containers in a single pool, and the context switches the
// startup generated (Fig 8b).
type StartupRow struct {
	Config          core.Configuration
	Containers      int
	RealTime        time.Duration
	ContextSwitches uint64
}

// String renders the row for the harness.
func (r StartupRow) String() string {
	return fmt.Sprintf("%-5s n=%-4d real=%-14v ctxsw=%d", r.Config, r.Containers, r.RealTime, r.ContextSwitches)
}

// Fig8Counts returns the paper's container sweep (1-256).
func Fig8Counts() []int { return []int{1, 4, 16, 64, 256} }

// Fig8Configs lists the Fig 8 comparison set.
func Fig8Configs() []core.Configuration {
	return []core.Configuration{core.ConfigD, core.ConfigKK, core.ConfigFK, core.ConfigFF}
}

// RunStartupScaleup executes one Fig 8 point: start `clones` cloned
// Lighttpd containers over a shared client in one pool and measure the
// time until every webserver is ready.
func RunStartupScaleup(config core.Configuration, clones int, scale Scale) StartupRow {
	// The shared webserver image on the cluster.
	var image []File
	if err := workloads.ProvisionImage(scale.Params(), "/images/lighttpd", func(path string, size int64) error {
		image = append(image, File{Path: path, Size: size})
		return nil
	}); err != nil {
		panic(err)
	}
	tb, _ := scaleupSpec("web", config, 16, scale, Scaleup{Clones: clones, Mem: 8, Lower: "/images/lighttpd", Image: image}).Testbed()
	pool := tb.Pools()[0]
	row := StartupRow{Config: config, Containers: clones}
	loads := make([]load, clones)
	for i, cont := range pool.Containers() {
		w := &workloads.Startup{Default: cont.Mount.Default, Legacy: cont.Mount.Legacy, Params: tb.Params,
			NewThread: cont.NewThread, Stats: workloads.NewStats()}
		loads[i] = load{run: w.Run}
	}
	Drive(tb, func(p *sim.Proc) {
		start, switches := tb.Eng.Now(), pool.Acct.ContextSwitches()
		runLoads(p, tb, clockNow(tb), loads...)
		row.RealTime = tb.Eng.Now() - start
		row.ContextSwitches = pool.Acct.ContextSwitches() - switches
	})
	return row
}

// FileIORow is one point of Fig 11: timespan and maximum memory of the
// Fileappend or Fileread scaleup.
type FileIORow struct {
	Config     core.Configuration
	Containers int
	Timespan   time.Duration
	MaxMemory  int64
}

// String renders the row for the harness.
func (r FileIORow) String() string {
	return fmt.Sprintf("%-5s n=%-3d timespan=%-14v maxmem=%dMB", r.Config, r.Containers, r.Timespan, r.MaxMemory>>20)
}

// Fig11Counts returns the paper's container sweep (1-32).
func Fig11Counts() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig11Configs lists the Fig 11 comparison set.
func Fig11Configs() []core.Configuration {
	return []core.Configuration{core.ConfigD, core.ConfigKK, core.ConfigFF, core.ConfigFPFP}
}

// RunFileIOScaleup executes one Fig 11 point: `clones` cloned
// containers over a shared client, each appending to (append=true) or
// reading (append=false) a large file from the shared lower branch.
func RunFileIOScaleup(config core.Configuration, clones int, append bool, scale Scale) FileIORow {
	// The shared lower branch holds the 2 GB target file (scaled), and
	// the single pool holds every clone (the paper: 64 cores, 200 GB).
	fileSize := int64(float64(2<<30) * scale.Factor)
	if fileSize < 16<<20 {
		fileSize = 16 << 20
	}
	tb, _ := scaleupSpec("fio", config, 64, scale, Scaleup{Clones: clones, Mem: 2 * int64(clones), Lower: "/images/data",
		Image: []File{{Path: "/images/data/blob", Size: fileSize}}}).Testbed()
	pool := tb.Pools()[0]
	row := FileIORow{Config: config, Containers: clones}
	loads := make([]load, clones)
	for i, cont := range pool.Containers() {
		var w runner = &workloads.FileRead{FS: cont.Mount.Default, Path: "/blob", NewThread: cont.NewThread, Stats: workloads.NewStats()}
		if append {
			w = &workloads.FileAppend{FS: cont.Mount.Default, Path: "/blob", NewThread: cont.NewThread, Stats: workloads.NewStats()}
		}
		loads[i] = load{run: w.Run}
	}
	Drive(tb, func(p *sim.Proc) {
		start := tb.Eng.Now()
		runLoads(p, tb, clockNow(tb), loads...)
		row.Timespan = tb.Eng.Now() - start
		row.MaxMemory = pool.Memory.MaxSum()
	})
	return row
}
