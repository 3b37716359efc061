package protocol_test

// Certified-propagation rules of the distinct-relayer Acceptance mode
// (Bhandari–Vaidya, which protocol Breactive runs over its reactive
// local broadcast), one rule per test.

import (
	"testing"

	"bftbcast/internal/grid"
	"bftbcast/internal/protocol"
	"bftbcast/internal/radio"
)

// newCertified builds a distinct-mode acceptance for fault bound t.
func newCertified(tb testing.TB, tor *grid.Torus, t int, source grid.NodeID) *protocol.Acceptance {
	tb.Helper()
	acc, err := protocol.NewAcceptance(protocol.AcceptConfig{
		Topo: tor, Source: source, Threshold: t + 1,
		Distinct: true, SourceDirect: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return acc
}

func TestCPMaxT(t *testing.T) {
	tests := []struct{ r, want int }{
		{1, 1},  // ceil(3/2)-1 = 1
		{2, 4},  // ceil(10/2)-1 = 4
		{3, 10}, // ceil(21/2)-1 = 10
		{4, 17}, // ceil(36/2)-1 = 17
	}
	for _, tc := range tests {
		if got := protocol.CPMaxT(tc.r); got != tc.want {
			t.Errorf("CPMaxT(%d) = %d, want %d", tc.r, got, tc.want)
		}
	}
}

func TestNewAcceptanceValidation(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	for i, cfg := range []protocol.AcceptConfig{
		{Topo: nil, Threshold: 1},
		{Topo: tor, Threshold: 0},
		{Topo: tor, Threshold: 1, Source: grid.NodeID(tor.Size())},
		{Topo: tor, Threshold: 1, Source: -1},
	} {
		if _, err := protocol.NewAcceptance(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestAcceptanceSourceNeighborsAcceptDirectly(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	src := tor.ID(5, 5)
	acc := newCertified(t, tor, 2, src)
	nb := tor.ID(6, 5)
	if !acc.Deliver(nb, src, radio.ValueTrue) {
		t.Fatal("source neighbor did not accept direct delivery")
	}
	if v, ok := acc.DecidedValue(nb); !ok || v != radio.ValueTrue {
		t.Fatalf("neighbor state = (%v,%v)", v, ok)
	}
}

func TestAcceptanceNeedsTPlusOneInWindow(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	acc := newCertified(t, tor, 2, tor.ID(0, 0))
	to := tor.ID(7, 7)
	// Two relayers (t=2) are not enough.
	acc.Deliver(to, tor.ID(6, 6), radio.ValueTrue)
	if acc.Deliver(to, tor.ID(8, 8), radio.ValueTrue) {
		t.Fatal("accepted with only t relayers")
	}
	if _, ok := acc.DecidedValue(to); ok {
		t.Fatal("decided with only t relayers")
	}
	// Third relayer, all three inside the window centred at (7,7).
	if !acc.Deliver(to, tor.ID(7, 6), radio.ValueTrue) {
		t.Fatal("did not accept with t+1 relayers in one window")
	}
}

func TestAcceptanceDuplicateRelayersDoNotCount(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	acc := newCertified(t, tor, 2, tor.ID(0, 0))
	to := tor.ID(7, 7)
	from := tor.ID(6, 7)
	for i := 0; i < 5; i++ {
		if acc.Deliver(to, from, radio.ValueTrue) {
			t.Fatal("duplicate relayer caused acceptance")
		}
	}
	if got := acc.PendingRelayers(to, radio.ValueTrue); got != 1 {
		t.Fatalf("PendingRelayers = %d, want 1", got)
	}
}

func TestAcceptanceOutOfRangeDeliveryIgnored(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	acc := newCertified(t, tor, 1, tor.ID(0, 0))
	if acc.Deliver(tor.ID(7, 7), tor.ID(0, 7), radio.ValueTrue) {
		t.Fatal("out-of-range delivery accepted")
	}
	if acc.PendingRelayers(tor.ID(7, 7), radio.ValueTrue) != 0 {
		t.Fatal("out-of-range relayer recorded")
	}
}

// TestAcceptanceWindowSpan: two relayers 2r apart on both axes still
// share the window centred on the receiver, so they certify for t=1.
func TestAcceptanceWindowSpan(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	acc := newCertified(t, tor, 1, tor.ID(0, 0))
	to := tor.ID(7, 7)
	acc.Deliver(to, tor.ID(5, 5), radio.ValueTrue)
	if !acc.Deliver(to, tor.ID(9, 9), radio.ValueTrue) {
		t.Fatal("two relayers within a common window should certify for t=1")
	}
}

func TestAcceptanceValuesTrackedSeparately(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	acc := newCertified(t, tor, 1, tor.ID(0, 0))
	to := tor.ID(7, 7)
	acc.Deliver(to, tor.ID(6, 7), radio.ValueTrue)
	if acc.Deliver(to, tor.ID(8, 7), radio.ValueFalse) {
		t.Fatal("mixed values certified")
	}
	if !acc.Deliver(to, tor.ID(7, 6), radio.ValueTrue) {
		t.Fatal("second ValueTrue relayer should certify")
	}
}

func TestAcceptanceOnAccept(t *testing.T) {
	tor := grid.MustNew(10, 10, 2)
	src := tor.ID(0, 0)
	acc := newCertified(t, tor, 0, src)
	var got []grid.NodeID
	acc.OnAccept = func(id grid.NodeID, v radio.Value) { got = append(got, id) }
	acc.Deliver(tor.ID(1, 0), src, radio.ValueTrue)
	if len(got) != 1 || got[0] != tor.ID(1, 0) {
		t.Fatalf("OnAccept calls = %v", got)
	}
}

// TestAcceptanceFullPropagationFaultFree drives certified propagation by
// hand over a fault-free torus: every decided node relays once to its
// neighbors, and everyone must decide (t=1 needs 2 same-window relayers,
// available once the front is 2 nodes thick).
func TestAcceptanceFullPropagationFaultFree(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	src := tor.ID(0, 0)
	acc := newCertified(t, tor, 1, src)
	queue := []grid.NodeID{src}
	acc.OnAccept = func(id grid.NodeID, _ radio.Value) { queue = append(queue, id) }
	for len(queue) > 0 {
		sender := queue[0]
		queue = queue[1:]
		v, _ := acc.DecidedValue(sender)
		tor.ForEachNeighbor(sender, func(to grid.NodeID) {
			acc.Deliver(to, sender, v)
		})
	}
	if got := acc.DecidedCount(); got != tor.Size() {
		t.Fatalf("decided %d/%d", got, tor.Size())
	}
}

// benchDeliverAll drives one full certified-propagation pass: every
// non-source node receives t+1 in-window relays of Vtrue and accepts.
func benchDeliverAll(b *testing.B, tor *grid.Torus, t int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		acc := newCertified(b, tor, t, 0)
		b.StartTimer()
		for id := 1; id < tor.Size(); id++ {
			to := grid.NodeID(id)
			n := 0
			tor.ForEachNeighbor(to, func(nb grid.NodeID) {
				if n <= t && nb != to {
					acc.Deliver(to, nb, radio.ValueTrue)
					n++
				}
			})
		}
		if got := acc.DecidedCount(); got != tor.Size() {
			b.Fatalf("decided %d of %d", got, tor.Size())
		}
	}
}

// BenchmarkBVDeliver measures the certified-propagation Deliver hot path
// (Bhandari–Vaidya acceptance) over the flat relay arena.
func BenchmarkBVDeliver(b *testing.B) {
	benchDeliverAll(b, grid.MustNew(30, 30, 2), 2)
}

// TestDeliverAllocs guards the flat relay storage with
// testing.AllocsPerRun: a duplicate relay (the common retransmission
// case under the reactive protocol) must not allocate at all.
func TestDeliverAllocs(t *testing.T) {
	tor := grid.MustNew(15, 15, 2)
	acc := newCertified(t, tor, 2, 0)
	to := tor.ID(7, 7)
	from := tor.ID(7, 8)
	if acc.Deliver(to, from, radio.ValueTrue) {
		t.Fatal("single relay must not certify with t=2")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if acc.Deliver(to, from, radio.ValueTrue) {
			t.Fatal("duplicate relay must not certify")
		}
	}); allocs != 0 {
		t.Fatalf("duplicate Deliver allocated %.1f times per call, want 0", allocs)
	}
}
