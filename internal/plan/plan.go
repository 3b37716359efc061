// Package plan compiles a topology into the immutable artifacts every
// execution backend re-derives per run when left to its own devices: the
// CSR-flattened adjacency (with sorted per-node neighbor lists), the
// distance-2 TDMA coloring and schedule, the per-color node classes, the
// closed-neighborhood ball sizes and a diameter hint.
//
// A Plan is computed exactly once per topology and shared by reference:
// the fast and reference slot engines, the actor runtime, the reactive
// runtime, the adversary layer and every sweep worker all read the same
// arrays. Plans are keyed by topology identity (topologies are immutable
// pointer values), so Scenario.With derivations over one topology hit the
// cache, and so does every worker of a Sweep.
//
// Lifetime: the cache retains up to maxCached plans (with their
// topologies), evicting the oldest beyond that, so hosts that churn
// through distinct topologies cannot pin memory without bound; Purge
// drops every entry at once. Invalidation never happens implicitly —
// topologies are immutable, so a compiled plan can never go stale, and
// an evicted plan stays valid for engines already holding it.
package plan

import (
	"sync"

	"bftbcast/internal/grid"
	"bftbcast/internal/radio"
	"bftbcast/internal/sched"
	"bftbcast/internal/topo"
)

// Plan is the compiled, immutable, concurrency-safe view of one topology.
// Construct with For (cached) or Compute (uncached); the zero value is
// unusable. All exposed slices are shared storage and must not be
// modified.
type Plan struct {
	t   topo.Topology
	n   int
	adj *radio.Adjacency

	tdma    *sched.TDMA
	tdmaErr error
	classes [][]grid.NodeID // per color, ascending node ids

	maxDegree int
	diamHint  int
}

// maxCached bounds the cache so a host that churns through distinct
// topologies (one fresh RGG per request, say) cannot pin memory without
// bound: beyond the cap the oldest entry is evicted in insertion order.
// Evicted plans stay valid for whoever holds them — eviction only costs
// a recompute on the next For of that topology — and the cap is far
// above any sweep's working set.
const maxCached = 128

// cache maps topo.Topology (pointer identity) to *entry. Entries are
// inserted once and compiled under their own once, so concurrent callers
// never compute the same plan twice.
var cache = struct {
	sync.RWMutex
	m     map[topo.Topology]*entry
	order []topo.Topology // insertion order, for eviction
}{m: make(map[topo.Topology]*entry)}

type entry struct {
	once sync.Once
	plan *Plan
}

// For returns the compiled plan of t, computing it on first use and
// serving every later call (from any goroutine) out of the cache.
func For(t topo.Topology) *Plan {
	cache.RLock()
	en := cache.m[t]
	cache.RUnlock()
	if en == nil {
		cache.Lock()
		if en = cache.m[t]; en == nil {
			en = &entry{}
			cache.m[t] = en
			cache.order = append(cache.order, t)
			if len(cache.order) > maxCached {
				delete(cache.m, cache.order[0])
				// Clear the slot before advancing: reslicing alone keeps
				// the evicted topology reachable through the backing
				// array, pinning exactly the memory the cap releases.
				cache.order[0] = nil
				cache.order = cache.order[1:]
			}
		}
		cache.Unlock()
	}
	en.once.Do(func() { en.plan = Compute(t) })
	return en.plan
}

// Purge drops every cached plan, releasing the topologies they pin. It is
// safe to call concurrently with For; in-flight plans stay valid.
func Purge() {
	cache.Lock()
	clear(cache.m)
	cache.order = nil
	cache.Unlock()
}

// Compute compiles t without touching the cache (tests and one-shot
// tools).
func Compute(t topo.Topology) *Plan {
	p := &Plan{
		t:        t,
		n:        t.Size(),
		adj:      radio.NewAdjacency(t),
		diamHint: t.DiameterHint(),
	}
	for i := 0; i < p.n; i++ {
		if d := p.adj.Degree(grid.NodeID(i)); d > p.maxDegree {
			p.maxDegree = d
		}
	}
	p.tdma, p.tdmaErr = sched.New(t)
	if p.tdmaErr == nil {
		colors := p.tdma.Colors()
		p.classes = make([][]grid.NodeID, p.tdma.Period())
		counts := make([]int32, p.tdma.Period())
		for _, c := range colors {
			counts[c]++
		}
		arena := make([]grid.NodeID, p.n)
		off := 0
		for c := range p.classes {
			p.classes[c] = arena[off : off : off+int(counts[c])]
			off += int(counts[c])
		}
		for i, c := range colors {
			p.classes[c] = append(p.classes[c], grid.NodeID(i))
		}
	}
	return p
}

// Topo returns the compiled topology.
func (p *Plan) Topo() topo.Topology { return p.t }

// Size returns the number of nodes.
func (p *Plan) Size() int { return p.n }

// Adjacency returns the shared CSR adjacency.
func (p *Plan) Adjacency() *radio.Adjacency { return p.adj }

// Neighbors returns the neighbor list of id in the topology's
// deterministic iteration order (shared storage, read-only).
func (p *Plan) Neighbors(id grid.NodeID) []grid.NodeID { return p.adj.Neighbors(id) }

// Degree returns the number of neighbors of id (the open ball size; the
// closed ball is Degree+1).
func (p *Plan) Degree(id grid.NodeID) int { return p.adj.Degree(id) }

// MaxDegree returns the largest degree over all nodes.
func (p *Plan) MaxDegree() int { return p.maxDegree }

// DiameterHint returns the topology's generous hop-diameter bound.
func (p *Plan) DiameterHint() int { return p.diamHint }

// TDMA returns the compiled collision-free schedule, or the topology's
// coloring error (identical to what sched.New would report per run).
func (p *Plan) TDMA() (*sched.TDMA, error) { return p.tdma, p.tdmaErr }

// Colors returns the per-node TDMA color array (shared storage,
// read-only), or nil when the topology has no valid coloring.
func (p *Plan) Colors() []int32 {
	if p.tdmaErr != nil {
		return nil
	}
	return p.tdma.Colors()
}

// Period returns the schedule period, or 0 when the topology has no valid
// coloring.
func (p *Plan) Period() int {
	if p.tdmaErr != nil {
		return 0
	}
	return p.tdma.Period()
}

// ColorClasses returns, per color, the ascending node ids of that color
// class (shared storage, read-only), or nil when the topology has no
// valid coloring.
func (p *Plan) ColorClasses() [][]grid.NodeID { return p.classes }
