// Command bftsim runs one broadcast scenario from command-line flags on
// a selectable execution backend and prints the unified report,
// optionally tracing acceptances as JSON Lines.
//
// Engine and protocol are orthogonal: -engine picks the execution
// backend (fast | ref | actor), -protocol picks the node-level state
// machine (b | bheter | koo | full | reactive). Every combination runs
// through the same Scenario/Engine code path; invalid combinations are
// rejected with actionable errors (the actor backend is fault-free, the
// reactive protocol drives its adversary through -policy, …).
//
// A run is single-threaded; to use more cores, run many points at once
// with bftbench -parallel or a bftsimd grid job.
//
// Examples:
//
//	bftsim -w 20 -h 20 -r 2 -t 3 -mf 2 -adversary random -density 0.1
//	bftsim -w 45 -h 45 -r 4 -t 1 -mf 1000 -protocol full -m 59 -adversary figure2
//	bftsim -protocol reactive -w 15 -h 15 -r 2 -t 1 -mf 3 -policy disrupt
//	bftsim -engine ref -protocol reactive -topology grid -w 15 -h 15 -r 2 -t 1 -mf 3
//	bftsim -engine actor -topology grid -w 20 -h 20 -r 2 -t 2 -mf 2
//	bftsim -engine ref -topology rgg -n 300 -t 1 -mf 2 -adversary random
//	bftsim -timeout 5s -w 45 -h 45 -r 4 -t 2 -mf 64 -adversary random
//	bftsim -broadcasts 16 -w 45 -h 45 -r 2 -t 1 -mf 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bftbcast"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bftsim: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and executes one scenario, writing the report to
// stdout. It is the whole command behind a testable seam (see
// main_test.go's flag-matrix coverage).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bftsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engineName = fs.String("engine", "fast", "execution backend: fast | ref | actor")
		topology   = fs.String("topology", "torus", "topology: torus | grid (bounded, border effects) | rgg (random geometric graph)")
		w          = fs.Int("w", 20, "grid width (torus: multiple of 2r+1)")
		h          = fs.Int("h", 20, "grid height (torus: multiple of 2r+1)")
		r          = fs.Int("r", 2, "radio range (grid topologies; rgg always uses hop range 1)")
		n          = fs.Int("n", 0, "rgg node count (0 = w*h)")
		t          = fs.Int("t", 3, "max bad nodes per neighborhood")
		mf         = fs.Int("mf", 2, "bad node message budget")
		protoName  = fs.String("protocol", "b", "protocol: b | bheter | koo | full | reactive (runs on any engine)")
		m          = fs.Int("m", 0, "budget for -protocol full")
		adv        = fs.String("adversary", "none", "adversary: none | random | sandwich | figure2 (sandwich/figure2 are torus constructions)")
		density    = fs.Float64("density", 0.1, "bad density for -adversary random")
		seed       = fs.Uint64("seed", 1, "random seed (also drives the rgg layout)")
		policy     = fs.String("policy", "disrupt", "reactive attack policy: disrupt|forge|nackspam|mixed")
		mmax       = fs.Int("mmax", 64, "loose budget bound known to the reactive protocol")
		k          = fs.Int("k", 16, "payload bits for the reactive protocol")
		broadcasts = fs.Int("broadcasts", 0, "concurrent broadcast instances (multi-broadcast traffic; threshold protocols only)")
		traceFlag  = fs.Bool("trace", false, "emit acceptance events as JSON lines")
		timeout    = fs.Duration("timeout", 0, "wall-clock deadline for the run (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h/--help is not an error
		}
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	engine, err := bftbcast.NewEngine(*engineName)
	if err != nil {
		return err
	}
	reactive := *protoName == "reactive"
	if !reactive {
		for _, f := range []string{"policy", "mmax", "k"} {
			if set[f] {
				return fmt.Errorf("-%s only applies to -protocol reactive (got -protocol %s)", f, *protoName)
			}
		}
	} else if set["m"] {
		return fmt.Errorf("-m only applies to -protocol full (got -protocol reactive)")
	}
	if reactive && set["broadcasts"] {
		return fmt.Errorf("-broadcasts runs the threshold protocol family only (got -protocol reactive)")
	}

	tp, err := bftbcast.NewTopology(bftbcast.TopologySpec{
		Kind: *topology, W: *w, H: *h, R: *r, Nodes: *n, Seed: *seed,
	})
	if err != nil {
		return err
	}

	// The fault-model range follows the topology (an rgg always has hop
	// range 1, whatever -r says).
	params := bftbcast.Params{R: tp.Range(), T: *t, MF: *mf}
	opts := []bftbcast.ScenarioOption{
		bftbcast.WithTopology(tp),
		bftbcast.WithParams(params),
		bftbcast.WithSeed(*seed),
	}
	if set["broadcasts"] {
		opts = append(opts, bftbcast.WithBroadcasts(*broadcasts))
	}

	if reactive {
		pol, err := parsePolicy(*policy)
		if err != nil {
			return err
		}
		opts = append(opts,
			bftbcast.WithProtocol(bftbcast.ProtocolReactive),
			bftbcast.WithReactive(bftbcast.ReactiveSpec{
				MMax: *mmax, PayloadBits: *k, Policy: pol,
			}))
		switch *adv {
		case "none":
		case "random":
			opts = append(opts, bftbcast.WithPlacement(
				bftbcast.RandomPlacement{T: *t, Density: *density, Seed: *seed}))
		default:
			return fmt.Errorf("-adversary %s drives bad nodes through a jamming strategy, which the reactive protocol replaces with -policy; use -adversary none or random", *adv)
		}
	} else {
		spec, err := buildSpec(*protoName, params, tp, *topology, *m)
		if err != nil {
			return err
		}
		opts = append(opts, bftbcast.WithSpec(spec))
		advOpt, err := buildAdversary(*adv, tp, *topology, params, *density, *seed, *h, *r)
		if err != nil {
			return err
		}
		if advOpt != nil {
			opts = append(opts, advOpt)
		}
	}

	var tracer *bftbcast.TraceObserver
	if *traceFlag {
		tracer = bftbcast.NewTraceObserver(stdout)
		opts = append(opts, bftbcast.WithObserver(tracer))
	}

	sc, err := bftbcast.NewScenario(opts...)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := engine.Run(ctx, sc)
	if err != nil {
		return err
	}
	if tracer != nil {
		if err := tracer.Finish(rep); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "engine=%s protocol=%s topology=%q t=%d mf=%d\n", rep.Engine, *protoName, tp, params.T, params.MF)
	fmt.Fprintf(stdout, "completed=%v stalled=%v timedOut=%v slots=%d\n",
		rep.Completed, rep.Stalled, rep.TimedOut, rep.Slots)
	fmt.Fprintf(stdout, "decided=%d/%d wrongDecisions=%d\n", rep.DecidedGood, rep.TotalGood, rep.WrongDecisions)
	fmt.Fprintf(stdout, "goodMessages=%d badMessages=%d avgSends=%.2f maxSends=%d\n",
		rep.GoodMessages, rep.BadMessages, rep.AvgGoodSends, rep.MaxGoodSends)
	if mr := rep.Multi; mr != nil {
		done := 0
		for _, in := range mr.Instances {
			if in.Completed {
				done++
			}
		}
		fmt.Fprintf(stdout, "multi: broadcasts=%d completed=%d/%d batchedSends=%d naiveSends=%d entries=%d decisions/slot=%.3f\n",
			mr.M, done, mr.M, mr.BatchedSends, mr.NaiveSends, mr.EntriesCarried, mr.DecisionsPerSlot)
	}
	if rr := rep.Reactive; rr != nil {
		fmt.Fprintf(stdout, "reactive: rounds=%d forged=%d L=%d K=%d maxMsgs/node=%d (bound %d) maxSubSlots=%d (Theorem4 %d)\n",
			rr.MessageRounds, rr.ForgedDeliveries, rr.SubBitLength, rr.CodewordBits,
			rr.MaxNodeMessages, 2*(params.T*params.MF+1), rr.MaxNodeSubSlots, rr.Theorem4SubSlots)
	}
	return nil
}

// buildSpec resolves the -protocol flag for the static protocols.
func buildSpec(protocol string, params bftbcast.Params, tp bftbcast.Topology, topology string, m int) (bftbcast.Spec, error) {
	switch protocol {
	case "b":
		return bftbcast.NewProtocolB(params)
	case "bheter":
		tor, ok := tp.(*bftbcast.Torus)
		if !ok {
			return bftbcast.Spec{}, fmt.Errorf("-protocol bheter is a torus construction (got -topology %s)", topology)
		}
		return bftbcast.NewBheter(params, tor, bftbcast.Cross{Center: tor.ID(0, 0), HalfWidth: params.R})
	case "koo":
		return bftbcast.NewKooBaseline(params)
	case "full":
		if m <= 0 {
			return bftbcast.Spec{}, fmt.Errorf("-protocol full needs -m")
		}
		return bftbcast.NewFullBudget(params, m)
	default:
		return bftbcast.Spec{}, fmt.Errorf("unknown protocol %q (want b, bheter, koo, full or reactive)", protocol)
	}
}

// buildAdversary resolves the -adversary flag into a scenario option
// (nil for -adversary none).
func buildAdversary(adv string, tp bftbcast.Topology, topology string, params bftbcast.Params, density float64, seed uint64, h, r int) (bftbcast.ScenarioOption, error) {
	switch adv {
	case "none":
		return nil, nil
	case "random":
		return bftbcast.WithAdversary(
			bftbcast.RandomPlacement{T: params.T, Density: density, Seed: seed},
			bftbcast.NewCorruptor(),
		), nil
	case "sandwich":
		tor, ok := tp.(*bftbcast.Torus)
		if !ok {
			return nil, fmt.Errorf("-adversary sandwich is a torus construction (got -topology %s)", topology)
		}
		sw := bftbcast.SandwichPlacement{YLow: h/3 + 1, YHigh: h/3 + 1 + 3*r, T: params.T}
		return bftbcast.WithAdversary(sw, bftbcast.NewTargeted(sw.VictimBand(tor))), nil
	case "figure2":
		tor, ok := tp.(*bftbcast.Torus)
		if !ok {
			return nil, fmt.Errorf("-adversary figure2 is a torus construction (got -topology %s)", topology)
		}
		victims := make([]bool, tor.Size())
		for _, pr := range [][2]int{
			{r + 1, 1}, {1, r + 1}, {r + 1, -1}, {1, -(r + 1)},
			{-(r + 1), 1}, {-1, r + 1}, {-(r + 1), -1}, {-1, -(r + 1)},
		} {
			victims[tor.ID(pr[0], pr[1])] = true
		}
		return bftbcast.WithAdversary(
			bftbcast.LatticePlacement{Offsets: [][2]int{{r, -r}}},
			bftbcast.NewTargeted(victims),
		), nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", adv)
	}
}

func parsePolicy(policy string) (bftbcast.AttackPolicy, error) {
	switch policy {
	case "disrupt":
		return bftbcast.PolicyDisrupt, nil
	case "forge":
		return bftbcast.PolicyForge, nil
	case "nackspam":
		return bftbcast.PolicyNackSpam, nil
	case "mixed":
		return bftbcast.PolicyMixed, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", policy)
	}
}
