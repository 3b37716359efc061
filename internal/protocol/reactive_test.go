package protocol_test

// Invariant coverage for the reactive machine (protocol Breactive): the
// protocol's guarantees as absolute outcomes — certified propagation
// completes with every good node deciding Vtrue (absent forgeries), the
// adversary spends at most its budget, per-node message counts respect
// the Theorem 4 bound, and the run record agrees with the engine.

import (
	"reflect"
	"testing"

	"bftbcast/internal/adversary"
	"bftbcast/internal/core"
	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/sim"
)

func reactiveConfig(t *testing.T, policy protocol.AttackPolicy, seed uint64) (sim.Config, *protocol.Reactive) {
	t.Helper()
	tor, err := grid.New(15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: policy}
	return sim.Config{
		Topo:      tor,
		Params:    core.Params{R: 2, T: 1, MF: 3},
		Machine:   m,
		Placement: adversary.Random{T: 1, Density: 0.06, Seed: seed},
		Seed:      seed,
	}, m
}

// TestReactiveMachineInvariants runs every deterministic policy over a
// batch of seeds and checks completion, budget accounting, and the
// Theorem 4 per-node message and sub-slot bounds.
func TestReactiveMachineInvariants(t *testing.T) {
	for _, policy := range []protocol.AttackPolicy{
		protocol.PolicyDisrupt, protocol.PolicyNackSpam, protocol.PolicyMixed,
	} {
		t.Run(policy.String(), func(t *testing.T) {
			attacked := false
			for seed := uint64(1); seed <= 6; seed++ {
				cfg, m := reactiveConfig(t, policy, seed)
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				rs := m.TakeStats()
				if rs == nil {
					t.Fatalf("seed %d: machine published no stats", seed)
				}
				// Mixed includes forge rounds, whose rare successes may
				// plant wrong values; the pure denial policies must
				// complete cleanly.
				if policy != protocol.PolicyMixed && (!res.Completed || res.WrongDecisions != 0) {
					t.Fatalf("seed %d: completed=%v wrong=%d", seed, res.Completed, res.WrongDecisions)
				}
				if rs.ForgedDeliveries == 0 && (!res.Completed || res.WrongDecisions != 0) {
					t.Fatalf("seed %d: forgery-free run must complete cleanly (completed=%v wrong=%d)",
						seed, res.Completed, res.WrongDecisions)
				}
				if budget := res.BadCount * cfg.Params.MF; rs.AttacksSpent > budget {
					t.Fatalf("seed %d: adversary spent %d > budget %d", seed, rs.AttacksSpent, budget)
				}
				if bound := 2 * (cfg.Params.T*cfg.Params.MF + 1); rs.MaxNodeMessages > bound {
					t.Fatalf("seed %d: max node messages %d exceed Theorem 4 bound %d",
						seed, rs.MaxNodeMessages, bound)
				}
				if rs.MessageRounds != int(sum32(rs.DataSends)) {
					t.Fatalf("seed %d: rounds %d != total data sends %d",
						seed, rs.MessageRounds, sum32(rs.DataSends))
				}
				if res.GoodMessages != rs.MessageRounds {
					t.Fatalf("seed %d: engine sends %d != data rounds %d",
						seed, res.GoodMessages, rs.MessageRounds)
				}
				if rs.MaxNodeSubSlots > rs.Theorem4SubSlots {
					t.Fatalf("seed %d: sub-slots %d exceed Theorem 4 budget %d",
						seed, rs.MaxNodeSubSlots, rs.Theorem4SubSlots)
				}
				if policy == protocol.PolicyNackSpam {
					// Spam forces retransmissions but cannot corrupt anything.
					if rs.ForgedDeliveries != 0 {
						t.Fatalf("seed %d: NACK spam forged %d deliveries", seed, rs.ForgedDeliveries)
					}
					if rs.AttacksSpent > 0 && rs.MessageRounds <= rs.LocalBroadcasts {
						t.Fatalf("seed %d: %d spam NACKs forced no extra data round", seed, rs.AttacksSpent)
					}
				}
				attacked = attacked || rs.AttacksSpent > 0
			}
			if !attacked {
				t.Fatal("the adversary never attacked across the seeds")
			}
		})
	}
}

// TestReactiveMachineOutcomes pins the run-level outcomes of the
// disruption policy as absolute values: the broadcast completes, every
// good node decides, none decides wrong, and the machine's placement
// holds exactly the engine's bad-node count.
func TestReactiveMachineOutcomes(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		cfg, m := reactiveConfig(t, protocol.PolicyDisrupt, seed)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rs := m.TakeStats()
		if !res.Completed || res.DecidedGood != res.TotalGood || res.WrongDecisions != 0 {
			t.Fatalf("seed %d: completed=%v decided=%d/%d wrong=%d",
				seed, res.Completed, res.DecidedGood, res.TotalGood, res.WrongDecisions)
		}
		if placed := countTrue(rs.Bad); placed != res.BadCount {
			t.Fatalf("seed %d: placement holds %d bad nodes, engine reports %d", seed, placed, res.BadCount)
		}
	}
}

// TestReactiveMachineForgePolicy smoke-tests the probabilistic forging
// policy: runs stay well-formed whether or not a forgery lands, and a
// forgery-free run completes cleanly.
func TestReactiveMachineForgePolicy(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		cfg, m := reactiveConfig(t, protocol.PolicyForge, seed)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rs := m.TakeStats()
		if rs.ForgedDeliveries == 0 && (!res.Completed || res.WrongDecisions != 0) {
			t.Fatalf("seed %d: no forgery yet completed=%v wrong=%d", seed, res.Completed, res.WrongDecisions)
		}
		if res.DecidedGood > res.TotalGood || res.WrongDecisions > res.DecidedGood {
			t.Fatalf("seed %d: inconsistent decision accounting: %+v", seed, res)
		}
	}
}

// runMachine runs a fresh reactive machine on the fast engine.
func runMachine(t *testing.T, cfg sim.Config, m *protocol.Reactive) (*sim.Result, *protocol.ReactiveResult) {
	t.Helper()
	cfg.Machine = m
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, m.TakeStats()
}

// TestReactiveMachineFaultFree: without bad nodes every local broadcast
// is a single data round and nothing is corrupted.
func TestReactiveMachineFaultFree(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	res, rs := runMachine(t, sim.Config{Topo: tor, Params: core.Params{R: 2}, Seed: 1},
		&protocol.Reactive{MMax: 64, PayloadBits: 16})
	if !res.Completed || res.WrongDecisions != 0 || rs.ForgedDeliveries != 0 {
		t.Fatalf("fault-free run: completed=%v wrong=%d forged=%d", res.Completed, res.WrongDecisions, rs.ForgedDeliveries)
	}
	if rs.MessageRounds != rs.LocalBroadcasts {
		t.Fatalf("MessageRounds = %d, LocalBroadcasts = %d", rs.MessageRounds, rs.LocalBroadcasts)
	}
}

// TestReactiveMachineAttachValidation: runs outside the protocol's
// parameter domain fail instead of running.
func TestReactiveMachineAttachValidation(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	good := func() (sim.Config, *protocol.Reactive) {
		return sim.Config{Topo: tor, Params: core.Params{R: 2, T: 1, MF: 3}, Seed: 1},
			&protocol.Reactive{MMax: 64, PayloadBits: 16}
	}
	cases := []func(*sim.Config, *protocol.Reactive){
		func(c *sim.Config, _ *protocol.Reactive) { c.Topo = nil },
		func(c *sim.Config, _ *protocol.Reactive) { c.Params.T = -1 },
		func(c *sim.Config, _ *protocol.Reactive) { c.Params.T = 5 }, // above ceil(10/2)-1 = 4
		func(c *sim.Config, _ *protocol.Reactive) { c.Params.MF = -1 },
		func(_ *sim.Config, m *protocol.Reactive) { m.MMax = 0 },
		func(c *sim.Config, m *protocol.Reactive) { m.MMax, c.Params.MF = 1, 5 },
		func(_ *sim.Config, m *protocol.Reactive) { m.PayloadBits = 0 },
		func(c *sim.Config, _ *protocol.Reactive) { c.Source = grid.NodeID(tor.Size()) },
	}
	cfg, m := good()
	cfg.Machine = m
	if _, err := sim.Run(cfg); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, mutate := range cases {
		cfg, m := good()
		mutate(&cfg, m)
		cfg.Machine = m
		if _, err := sim.Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestReactiveMachineDeterministic: one seed, one outcome.
func TestReactiveMachineDeterministic(t *testing.T) {
	cfg, _ := reactiveConfig(t, protocol.PolicyMixed, 9)
	resA, a := runMachine(t, cfg, &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: protocol.PolicyMixed})
	resB, b := runMachine(t, cfg, &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: protocol.PolicyMixed})
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(resA, resB) {
		t.Fatalf("nondeterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[protocol.AttackPolicy]string{
		protocol.PolicyDisrupt:    "disrupt",
		protocol.PolicyForge:      "forge",
		protocol.PolicyNackSpam:   "nackspam",
		protocol.PolicyMixed:      "mixed",
		protocol.AttackPolicy(99): "policy(99)",
	} {
		if got := p.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(p), got, want)
		}
	}
}

// TestReactiveMachineHigherFaultLoad: t=3 with r=2 is still below the
// certified-propagation threshold (4); the broadcast must survive a
// denser adversary within the message bound.
func TestReactiveMachineHigherFaultLoad(t *testing.T) {
	tor := grid.MustNew(20, 20, 2)
	params := core.Params{R: 2, T: 3, MF: 2}
	res, rs := runMachine(t, sim.Config{
		Topo: tor, Params: params, Seed: 1,
		Placement: adversary.Random{T: 3, Density: 0.08, Seed: 11},
	}, &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: protocol.PolicyDisrupt})
	if !res.Completed {
		t.Fatalf("failed at t=3: %d/%d", res.DecidedGood, res.TotalGood)
	}
	if bound := 2 * (params.T*params.MF + 1); rs.MaxNodeMessages > bound {
		t.Fatalf("node sent %d messages, bound %d", rs.MaxNodeMessages, bound)
	}
}

// TestReactiveMachineMonteCarloReliability checks Section 5's
// probabilistic claim at the whole-protocol level: Breactive succeeds
// with probability at least 1 − 1/n. With n = 225 and L = 22 the
// failure probability per run is below 10⁻⁵, so across a batch of
// independent seeded runs every single one must complete correctly.
func TestReactiveMachineMonteCarloReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run Monte Carlo")
	}
	tor := grid.MustNew(15, 15, 2)
	const runs = 30
	failures := 0
	for seed := uint64(0); seed < runs; seed++ {
		res, rs := runMachine(t, sim.Config{
			Topo: tor, Params: core.Params{R: 2, T: 2, MF: 3}, Seed: seed * 7919,
			Placement: adversary.Random{T: 2, Density: 0.07, Seed: seed},
		}, &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: protocol.PolicyMixed})
		if !res.Completed || res.WrongDecisions != 0 {
			failures++
			t.Logf("seed %d failed: decided=%d/%d wrong=%d forged=%d",
				seed, res.DecidedGood, res.TotalGood, res.WrongDecisions, rs.ForgedDeliveries)
		}
	}
	if failures != 0 {
		t.Fatalf("%d/%d Monte Carlo runs failed; bound allows ~%.2f", failures, runs, float64(runs)/225)
	}
}

// TestReactiveMachineMonteCarloMessageBound verifies Theorem 4's
// message bound across random placements and policies.
func TestReactiveMachineMonteCarloMessageBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run Monte Carlo")
	}
	tor := grid.MustNew(15, 15, 2)
	params := core.Params{R: 2, T: 1, MF: 4}
	bound := 2 * (params.T*params.MF + 1)
	for seed := uint64(0); seed < 10; seed++ {
		for _, policy := range []protocol.AttackPolicy{protocol.PolicyDisrupt, protocol.PolicyNackSpam, protocol.PolicyMixed} {
			_, rs := runMachine(t, sim.Config{
				Topo: tor, Params: params, Seed: seed + 1000,
				Placement: adversary.Random{T: 1, Density: 0.06, Seed: seed},
			}, &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: policy})
			if rs.MaxNodeMessages > bound {
				t.Fatalf("seed %d policy %s: %d messages > bound %d", seed, policy, rs.MaxNodeMessages, bound)
			}
		}
	}
}

// runForge runs the forge policy with a small payload and an adversary
// budget of mf, so every data round is a fresh cancel lottery. Whatever
// the lottery outcome, the accounting holds: wrong decisions only come
// from counted forgeries, and the run terminates having broadcast.
func runForge(t *testing.T, mf int, density float64, placementSeed, seed uint64) *protocol.ReactiveResult {
	t.Helper()
	tor := grid.MustNew(15, 15, 2)
	res, rs := runMachine(t, sim.Config{
		Topo: tor, Params: core.Params{R: 2, T: 1, MF: mf}, Seed: seed,
		Placement: adversary.Random{T: 1, Density: density, Seed: placementSeed},
	}, &protocol.Reactive{MMax: mf, PayloadBits: 4, Policy: protocol.PolicyForge})
	if res.WrongDecisions > 0 && rs.ForgedDeliveries == 0 {
		t.Fatalf("mf=%d seed %d: wrong decision without a forged delivery", mf, seed)
	}
	if rs.MessageRounds <= 0 || rs.LocalBroadcasts <= 0 {
		t.Fatalf("mf=%d seed %d: degenerate run: %+v", mf, seed, rs)
	}
	return rs
}

// TestReactiveMachineForgeTinyL drives the forge policy with a weak code
// (mmax = mf = 30 and 4-bit payloads) across a batch of seeds. L =
// 2·log2(225)+log2(1)+log2(30) = 21 still makes single forgeries rare,
// so the test asserts the accounting stays consistent rather than
// forcing a hit.
func TestReactiveMachineForgeTinyL(t *testing.T) {
	forged := 0
	for seed := uint64(0); seed < 12; seed++ {
		forged += runForge(t, 30, 0.08, seed, seed+100).ForgedDeliveries
	}
	t.Logf("12 runs: %d forged deliveries", forged)
}

// TestReactiveMachineForgeAccountingAtMinimalL hammers one bad node with
// a huge budget: every data round is a fresh cancel lottery with
// p = 1/(2^L − 1).
func TestReactiveMachineForgeAccountingAtMinimalL(t *testing.T) {
	runForge(t, 500, 0.04, 3, 7)
}

// breactiveRun runs the baseline Breactive configuration (15×15 torus,
// r=2, t=1, mf=3, L from mmax=64) under one attack policy.
func breactiveRun(t *testing.T, policy protocol.AttackPolicy, density float64, placementSeed uint64) (*sim.Result, *protocol.ReactiveResult, core.Params) {
	t.Helper()
	params := core.Params{R: 2, T: 1, MF: 3}
	res, rs := runMachine(t, sim.Config{
		Topo: grid.MustNew(15, 15, 2), Params: params, Seed: 1,
		Placement: adversary.Random{T: 1, Density: density, Seed: placementSeed},
	}, &protocol.Reactive{MMax: 64, PayloadBits: 16, Policy: policy})
	return res, rs, params
}

func TestReactiveMachineUnderDisruption(t *testing.T) {
	res, rs, params := breactiveRun(t, protocol.PolicyDisrupt, 0.05, 3)
	if !res.Completed {
		t.Fatalf("Breactive failed under disruption: %d/%d decided, %d wrong",
			res.DecidedGood, res.TotalGood, res.WrongDecisions)
	}
	if rs.AttacksSpent == 0 {
		t.Fatal("adversary never attacked")
	}
	// Theorem 4 message bound: no good node sends more than 2(t*mf+1)
	// messages (data + NACKs).
	if bound := 2 * (params.T*params.MF + 1); rs.MaxNodeMessages > bound {
		t.Fatalf("node sent %d messages, Theorem 4 bound is %d", rs.MaxNodeMessages, bound)
	}
	if rs.MaxNodeSubSlots > rs.Theorem4SubSlots {
		t.Fatalf("sub-slots %d exceed Theorem 4 budget %d", rs.MaxNodeSubSlots, rs.Theorem4SubSlots)
	}
}

func TestReactiveMachineUnderNackSpam(t *testing.T) {
	res, rs, _ := breactiveRun(t, protocol.PolicyNackSpam, 0.05, 5)
	if !res.Completed {
		t.Fatalf("Breactive failed under NACK spam: %d/%d", res.DecidedGood, res.TotalGood)
	}
	// Spam forces retransmissions but cannot corrupt anything.
	if rs.ForgedDeliveries != 0 || res.WrongDecisions != 0 {
		t.Fatalf("NACK spam corrupted state: forged=%d wrong=%d", rs.ForgedDeliveries, res.WrongDecisions)
	}
	if rs.MessageRounds <= rs.LocalBroadcasts {
		t.Fatal("spam should force extra data rounds")
	}
}

func TestReactiveMachineUnderMixedAttack(t *testing.T) {
	res, rs, _ := breactiveRun(t, protocol.PolicyMixed, 0.08, 7)
	// With L = 2log(225)+log1+log64 = 16+0+6 = 22 the forge probability
	// is ~2.4e-7; a run of this size succeeds essentially always.
	if !res.Completed {
		t.Fatalf("Breactive failed under mixed attack: %d/%d, %d wrong, %d forged",
			res.DecidedGood, res.TotalGood, res.WrongDecisions, rs.ForgedDeliveries)
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func sum32(xs []int32) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}
