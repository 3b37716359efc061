package bftbcast_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bftbcast"
)

// TestGridSpecDecodeValidate pins the decoder's typed-error contract:
// malformed documents are rejected with ErrBadSpec at decode time, and
// scenario-level contradictions surface the scenario's typed error too.
func TestGridSpecDecodeValidate(t *testing.T) {
	good := []byte(`{
		"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
		          "adversary": "random", "density": 0.1, "seed": 7},
		"seeds": 3, "mf": [1, 2]
	}`)
	g, err := bftbcast.DecodeGridSpec(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NPoints(); got != 6 {
		t.Fatalf("NPoints = %d, want 6 (3 seeds x 2 mf)", got)
	}

	bad := []struct {
		name string
		doc  string
		want error
	}{
		{"not json", `{`, bftbcast.ErrBadSpec},
		{"unknown field", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}}, "densty": [0.1]}`, bftbcast.ErrBadSpec},
		{"unknown topology", `{"base": {"topology": {"Kind": "hypercube"}}}`, bftbcast.ErrBadSpec},
		{"unknown protocol", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "protocol": "warp"}}`, bftbcast.ErrBadSpec},
		{"unknown adversary", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "adversary": "stripe"}}`, bftbcast.ErrBadSpec},
		{"unknown policy", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "protocol": "reactive", "policy": "nuke"}}`, bftbcast.ErrBadSpec},
		{"full without m", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "protocol": "full"}}`, bftbcast.ErrBadSpec},
		{"bheter off torus", `{"base": {"topology": {"Kind": "rgg", "Nodes": 100, "Seed": 1}, "t": 1, "protocol": "bheter"}}`, bftbcast.ErrBadSpec},
		{"negative seeds", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}}, "seeds": -1}`, bftbcast.ErrBadSpec},
		{"negative mf axis", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1}, "mf": [-3]}`, bftbcast.ErrBadParams},
		{"t axis too large", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "mf": 1}, "t": [99]}`, bftbcast.ErrBadParams},
		{"reactive x broadcasts", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2, "protocol": "reactive"}, "broadcasts": [4]}`, bftbcast.ErrBadBroadcasts},
		{"negative run workers", `{"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2, "run_workers": -1}}`, bftbcast.ErrBadLimits},
		{"point count overflow", `{"base":{"topology":{"Kind":"torus","W":15,"H":15,"R":1},"t":1,"mf":2},"seeds":4611686018427387904,"t":[1,1,1,1]}`, bftbcast.ErrBadSpec},
	}
	for _, tc := range bad {
		if _, err := bftbcast.DecodeGridSpec([]byte(tc.doc)); !errors.Is(err, tc.want) {
			t.Errorf("%s: error = %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
}

// TestGridSpecRoundTrip requires Encode/Decode be lossless.
func TestGridSpecRoundTrip(t *testing.T) {
	g := &bftbcast.GridSpec{
		Base: bftbcast.ScenarioSpec{
			Topology: bftbcast.TopologySpec{Kind: "grid", W: 16, H: 16, R: 2},
			T:        1, MF: 2, Protocol: "koo", Adversary: "random", Density: 0.08, Seed: 42,
		},
		Seeds: 4,
		T:     []int{1, 2},
	}
	data, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := bftbcast.DecodeGridSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, back) {
		t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v", g, back)
	}
}

// TestGridSpecExpansion pins the deterministic expansion contract: the
// point order is fixed, replica 0 keeps the base seed, replicas get
// distinct derived seeds that also drive the adversary placement, all
// points share one topology, and re-expanding yields identical points.
func TestGridSpecExpansion(t *testing.T) {
	doc := []byte(`{
		"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
		          "adversary": "random", "density": 0.1, "seed": 9},
		"seeds": 3, "mf": [2, 5]
	}`)
	g, err := bftbcast.DecodeGridSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := g.Scenarios(0, g.NPoints())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != g.NPoints() || len(pts) != 6 {
		t.Fatalf("expanded %d points, want %d", len(pts), g.NPoints())
	}
	if pts[0].Seed != 9 {
		t.Fatalf("replica 0 seed = %d, want the base seed 9", pts[0].Seed)
	}
	// Fixed order: seeds outermost, MF innermost.
	if pts[0].Params.MF != 2 || pts[1].Params.MF != 5 {
		t.Fatalf("axis order: got MF %d, %d, want 2, 5", pts[0].Params.MF, pts[1].Params.MF)
	}
	if pts[0].Seed == pts[2].Seed || pts[2].Seed == pts[4].Seed {
		t.Fatal("replica seeds are not distinct")
	}
	if pts[2].Seed != pts[3].Seed {
		t.Fatal("points of one replica must share its derived seed")
	}
	for i, pt := range pts {
		if pt.Topo != pts[0].Topo {
			t.Fatalf("point %d does not share the grid's topology instance", i)
		}
		placement, ok := pt.Placement.(bftbcast.RandomPlacement)
		if !ok {
			t.Fatalf("point %d placement %T, want RandomPlacement", i, pt.Placement)
		}
		if placement.Seed != pt.Seed {
			t.Fatalf("point %d placement seed %d != scenario seed %d", i, placement.Seed, pt.Seed)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Strategy == pts[i-1].Strategy {
			t.Fatalf("points %d and %d share a strategy; strategies are single-run", i-1, i)
		}
	}

	again, err := g.Scenarios(0, g.NPoints())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Seed != again[i].Seed || pts[i].Params != again[i].Params {
			t.Fatalf("re-expansion diverged at point %d", i)
		}
	}
}

// TestGridSpecRunsDeterministically runs a small expanded grid through a
// Sweep twice and requires identical reports — the idempotence that
// makes checkpointed points safe to skip on resume. A third run of the
// same grid with the deprecated "run_workers" field must decode and
// report identically too: persisted specs may still carry it.
func TestGridSpecRunsDeterministically(t *testing.T) {
	const doc = `{
		"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
		          "adversary": "random", "density": 0.08, "seed": 3%s},
		"seeds": 2, "t": [1, 2]
	}`
	run := func(extra string) []bftbcast.SweepPoint {
		g, err := bftbcast.DecodeGridSpec([]byte(fmt.Sprintf(doc, extra)))
		if err != nil {
			t.Fatal(err)
		}
		scenarios, err := g.Scenarios(0, g.NPoints())
		if err != nil {
			t.Fatal(err)
		}
		pts, err := (&bftbcast.Sweep{Workers: 2, Scenarios: scenarios}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	a, b, c := run(""), run(""), run(`, "run_workers": 4`)
	for i := range a {
		if !reflect.DeepEqual(a[i].Report, b[i].Report) {
			t.Fatalf("point %d not reproducible across expansions", i)
		}
		if !reflect.DeepEqual(a[i].Report, c[i].Report) {
			t.Fatalf("point %d: run_workers changed the report", i)
		}
	}
}

// TestScenarioSpecReactive checks the reactive leg of the codec builds
// a runnable scenario (placement without strategy, policy resolved).
func TestScenarioSpecReactive(t *testing.T) {
	spec := &bftbcast.ScenarioSpec{
		Topology: bftbcast.TopologySpec{Kind: "torus", W: 15, H: 15, R: 2},
		T:        1, MF: 3, Protocol: "reactive", Policy: "forge",
		Adversary: "random", Density: 0.05, Seed: 2,
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Protocol != bftbcast.ProtocolReactive || sc.Strategy != nil {
		t.Fatalf("reactive scenario misbuilt: protocol %q, strategy %v", sc.Protocol, sc.Strategy)
	}
	rep, err := bftbcast.EngineFast.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reactive == nil {
		t.Fatal("reactive run lost its Report extension")
	}
}

// TestScenariosRange pins the range-expansion contract the sharded
// lease protocol leans on: Scenarios(lo, hi) equals the [lo, hi) slice
// of the full expansion for every cut, range expansion on a shared
// topology reuses that topology across calls, and out-of-range windows
// are rejected with the typed spec error.
func TestScenariosRange(t *testing.T) {
	doc := []byte(`{
		"base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
		          "adversary": "random", "density": 0.1, "seed": 13},
		"seeds": 3, "t": [1, 2], "mf": [2, 4]
	}`)
	g, err := bftbcast.DecodeGridSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	total := g.NPoints() // 12
	full, err := g.Scenarios(0, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != total {
		t.Fatalf("full expansion has %d points, want %d", len(full), total)
	}
	tp, err := bftbcast.NewTopology(g.Base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo <= total; lo++ {
		for hi := lo; hi <= total; hi++ {
			window, err := g.ScenariosOn(tp, lo, hi)
			if err != nil {
				t.Fatalf("ScenariosOn(%d, %d): %v", lo, hi, err)
			}
			if len(window) != hi-lo {
				t.Fatalf("ScenariosOn(%d, %d) built %d points", lo, hi, len(window))
			}
			for i, sc := range window {
				want := full[lo+i]
				if sc.Seed != want.Seed || sc.Params != want.Params || sc.Broadcasts != want.Broadcasts {
					t.Fatalf("window [%d,%d) point %d diverges from full expansion: seed %d/%d params %+v/%+v",
						lo, hi, i, sc.Seed, want.Seed, sc.Params, want.Params)
				}
				if sc.Topo != tp {
					t.Fatalf("window point %d does not share the provided topology", i)
				}
			}
		}
	}
	for _, bad := range [][2]int{{-1, 2}, {0, total + 1}, {5, 4}} {
		if _, err := g.Scenarios(bad[0], bad[1]); !errors.Is(err, bftbcast.ErrBadSpec) {
			t.Fatalf("Scenarios(%d, %d): err = %v, want ErrBadSpec", bad[0], bad[1], err)
		}
	}
}
