package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/sim"
)

func testCluster() (*sim.Engine, *cluster.Cluster) {
	e := sim.NewEngine()
	return e, cluster.New(e, model.Default(), 6)
}

func TestParseRoundTrip(t *testing.T) {
	in := "osd-crash:2:100ms-200ms;osd-degrade:1:8x:50ms-150ms;" +
		"net-spike:client:500µs:10ms-20ms;net-drop:3:4:30ms-40ms;" +
		"net-partition:0:60ms-70ms;mds-stall:80ms-90ms"
	p, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{OSDCrash, OSDDegrade, NetLatency, NetDrop, NetPartition, MDSStall}
	if len(p.Windows) != len(wantKinds) {
		t.Fatalf("parsed %d windows, want %d", len(p.Windows), len(wantKinds))
	}
	for i, k := range wantKinds {
		if p.Windows[i].Kind != k {
			t.Fatalf("window %d kind %v, want %v", i, p.Windows[i].Kind, k)
		}
	}
	if w := p.Windows[2]; w.OSD != ClientNIC || w.Extra != 500*time.Microsecond {
		t.Fatalf("net-spike window: %+v", w)
	}
	if w := p.Windows[3]; w.DropEvery != 4 {
		t.Fatalf("net-drop window: %+v", w)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip changed the plan:\n  %v\n  %v", p, p2)
	}
	if err := p.Validate(6); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// A plan needs crash-aware clients exactly when one of its windows is
// a client crash; backend faults alone never invalidate handles.
func TestPlanClientCrash(t *testing.T) {
	for sched, want := range map[string]bool{
		"":                                       false,
		"osd-crash:0:1ms-2ms;mds-stall:1ms-2ms":  false,
		"osd-crash:0:1ms-2ms;host-crash:3ms-4ms": true,
		"fuse-crash:t0:1ms-2ms":                  true,
	} {
		p, err := Parse(sched)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.ClientCrash(); got != want {
			t.Errorf("Parse(%q).ClientCrash() = %v, want %v", sched, got, want)
		}
	}
}

// Round trip of the three client-crash kinds: parse -> String ->
// reparse must be the identity, tenants land on the right field, and
// the host kind carries none.
func TestParseCrashRoundTrip(t *testing.T) {
	in := "danaus-crash:fls0:100ms-200ms;fuse-crash:web1:50ms-150ms;host-crash:300ms-400ms"
	p, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Window{
		{Kind: DanausCrash, Tenant: "fls0", Start: 100 * time.Millisecond, End: 200 * time.Millisecond},
		{Kind: FUSECrash, Tenant: "web1", Start: 50 * time.Millisecond, End: 150 * time.Millisecond},
		{Kind: HostCrash, Start: 300 * time.Millisecond, End: 400 * time.Millisecond},
	}
	if !reflect.DeepEqual(p.Windows, want) {
		t.Fatalf("parsed windows:\n  %+v\nwant:\n  %+v", p.Windows, want)
	}
	for _, w := range p.Windows {
		if !w.Kind.ClientCrash() {
			t.Fatalf("window %v not classified as a client crash", w)
		}
	}
	if p.String() != in {
		t.Fatalf("String() = %q, want %q", p.String(), in)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip changed the plan:\n  %v\n  %v", p, p2)
	}
	if err := p.Validate(6); err != nil {
		t.Fatalf("valid crash plan rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"flood:1:1s-2s",              // unknown kind
		"osd-crash:1",                // missing window
		"osd-crash:one:1s-2s",        // bad osd index
		"osd-crash:1:2s",             // window without '-'
		"osd-crash:1:x-2s",           // bad start
		"osd-crash:1:1s-y",           // bad end
		"osd-degrade:1:fast:1s-2s",   // bad factor
		"net-spike:client:soon:1-2s", // bad extra latency
		"net-drop:1:every:1s-2s",     // bad drop period
		"mds-stall:1:1s-2s",          // extra field
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted a bad entry", s)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(ws ...Window) Plan { return Plan{Windows: ws} }
	for name, p := range map[string]Plan{
		"empty interval":   mk(Window{Kind: OSDCrash, OSD: 1, Start: time.Second, End: time.Second}),
		"negative start":   mk(Window{Kind: OSDCrash, OSD: 1, Start: -time.Second, End: time.Second}),
		"no such osd":      mk(Window{Kind: OSDCrash, OSD: 6, Start: 0, End: time.Second}),
		"client partition": mk(Window{Kind: NetPartition, OSD: ClientNIC, Start: 0, End: time.Second}),
		"degrade below 1":  mk(Window{Kind: OSDDegrade, OSD: 0, Factor: 0.5, Start: 0, End: time.Second}),
		"drop period 0":    mk(Window{Kind: NetDrop, OSD: 0, Start: 0, End: time.Second}),
		"overlap same target": mk(
			Window{Kind: OSDCrash, OSD: 2, Start: 0, End: time.Second},
			Window{Kind: OSDCrash, OSD: 2, Start: 500 * time.Millisecond, End: 2 * time.Second},
		),
	} {
		if err := p.Validate(6); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Same kind on different targets, and different kinds on the same
	// target, may overlap freely.
	ok := mk(
		Window{Kind: OSDCrash, OSD: 1, Start: 0, End: time.Second},
		Window{Kind: OSDCrash, OSD: 2, Start: 0, End: time.Second},
		Window{Kind: OSDDegrade, OSD: 1, Factor: 4, Start: 0, End: time.Second},
	)
	if err := ok.Validate(6); err != nil {
		t.Fatalf("valid overlaps rejected: %v", err)
	}
}

// TestInjectorArmsAndDisarms checks the cluster state inside and after
// the windows, and that disarming restores everything.
func TestInjectorArmsAndDisarms(t *testing.T) {
	e, c := testCluster()
	plan, err := Parse("osd-crash:1:10ms-20ms;mds-stall:5ms-15ms;osd-degrade:2:8x:5ms-25ms")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := Install(e, c, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	var down, stalled bool
	var degraded float64
	e.After(12*time.Millisecond, func() {
		down = c.OSDs()[1].Down()
		stalled = c.MDSStalled()
		degraded = c.OSDs()[2].Degraded()
	})
	e.Run()
	if !down || !stalled || degraded != 8 {
		t.Fatalf("mid-window state: down=%v stalled=%v degraded=%v", down, stalled, degraded)
	}
	if c.OSDs()[1].Down() || c.MDSStalled() || c.OSDs()[2].Degraded() != 1 {
		t.Fatal("faults not fully disarmed after the schedule drained")
	}
	log := inj.Log()
	if len(log) != 6 {
		t.Fatalf("logged %d transitions, want 6", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].At < log[i-1].At {
			t.Fatalf("log out of order: %+v", log)
		}
	}
}

// TestInjectorDeterminism: two runs of the same schedule produce
// identical transition logs.
func TestInjectorDeterminism(t *testing.T) {
	run := func() []Event {
		e, c := testCluster()
		plan, err := Parse("osd-crash:1:10ms-20ms;net-spike:client:1ms:5ms-25ms;net-drop:0:7:1ms-30ms")
		if err != nil {
			t.Fatal(err)
		}
		inj, err := Install(e, c, plan, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		return inj.Log()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("injector logs differ:\n  %+v\n  %+v", a, b)
	}
}

// TestInstallRejectsBadPlan: Install validates before scheduling.
func TestInstallRejectsBadPlan(t *testing.T) {
	e, c := testCluster()
	plan := Plan{Windows: []Window{{Kind: OSDCrash, OSD: 99, End: time.Second}}}
	if _, err := Install(e, c, plan, 0); err == nil || !strings.Contains(err.Error(), "no such osd") {
		t.Fatalf("Install accepted a bad plan (err=%v)", err)
	}
}
