package core

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/topo"
)

// Arena is a reusable execution environment for campaigns: one object
// that owns every piece of heavy campaign state — the netsim.Network
// component slab, the route.Selector estimate slab and routing-table
// buffers, an analysis.Aggregator's window and run-length CDF storage,
// the calendar event queue and probe-stream slabs, and the campaign RNG.
// Running successive cells of a sweep through one arena reinitializes
// that state in place instead of reconstructing it, so steady-state cell
// turnover allocates nothing while producing results bit-identical to a
// fresh construction per cell (the golden-digest tests lock this).
//
// An Arena is not safe for concurrent use; the sweep engine keeps one
// per worker goroutine. The zero Arena is not usable — construct with
// NewArena.
type Arena struct {
	// Per-topology construction caches: the testbed and method list are
	// immutable once built, so cells sharing a (dataset, overlay size)
	// share them.
	haveCache  bool
	dataset    Dataset
	nodes      int
	overridden bool // last cell supplied Config.Methods explicitly
	tb         *topo.Testbed
	methods    []route.Method
	names      []string
	// plan caches the landmark plan per overlay size — it derives from n
	// alone, so landmark cells of one sweep share it.
	plan *route.LandmarkPlan

	nw  *netsim.Network
	sel *route.Selector
	agg *analysis.Aggregator
	rng netsim.Source
	c   campaign
	res Result
}

// NewArena returns an empty arena. All state is built lazily on the
// first Run and reused afterwards.
func NewArena() *Arena { return &Arena{} }

// Run executes one campaign in the arena. The returned Result — and in
// particular its aggregator — is owned by the arena: it remains valid
// only until the next Run or RunRetained on the same arena, which
// recycles its storage. Callers that keep results across cells (the
// sweep engine, snapshot writers) use RunRetained or finish consuming
// the Result first.
func (a *Arena) Run(cfg Config) (*Result, error) { return a.run(cfg, false) }

// RunRetained is Run, except the Result and its aggregator are freshly
// allocated and independent of the arena, safe to retain indefinitely.
// The campaign itself still runs entirely in reused state — network,
// selector, event queue, probe stream, routing tables, RNG, and the
// aggregator, which is cloned at exact size once the cell finishes.
func (a *Arena) RunRetained(cfg Config) (*Result, error) { return a.run(cfg, true) }

// prepare refreshes the testbed/method caches for the cell's topology.
func (a *Arena) prepare(cfg Config) {
	sameTopo := a.haveCache && a.dataset == cfg.Dataset && a.nodes == cfg.Nodes
	if !sameTopo {
		a.tb = cfg.testbed()
	}
	if !sameTopo || cfg.Methods != nil || a.overridden {
		if cfg.Methods != nil {
			a.methods = cfg.Methods
		} else {
			a.methods = cfg.methods()
		}
		a.names = a.names[:0]
		for _, m := range a.methods {
			a.names = append(a.names, m.Name)
		}
		a.overridden = cfg.Methods != nil
	}
	a.dataset = cfg.Dataset
	a.nodes = cfg.Nodes
	a.haveCache = true
}

// sameNames reports whether the aggregator's method list matches the
// arena's current one (shape check for aggregator reuse).
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// run is the shared campaign body: Reset-or-build each component, wire
// the campaign struct, and drive it. It mirrors the retired standalone
// Run construction exactly — same seeds, same draw order — with every
// constructor swapped for its in-place Reset twin when shapes allow.
func (a *Arena) run(cfg Config, retain bool) (*Result, error) {
	// Topology bounds come first: prepare constructs the testbed, and an
	// out-of-range overlay size must fail with a clear error instead of
	// panicking inside the generator or allocating an O(n²) slab.
	if err := cfg.validateTopology(); err != nil {
		return nil, err
	}
	a.prepare(cfg)
	if err := cfg.validate(a.methods); err != nil {
		return nil, err
	}
	n := a.tb.N()

	if a.nw == nil {
		a.nw = netsim.New(a.tb, cfg.Profile, cfg.Seed)
	} else {
		a.nw.Reset(a.tb, cfg.Profile, cfg.Seed)
	}
	if a.sel == nil || a.sel.N() != n {
		a.sel = route.NewSelectorWindow(n, cfg.LossWindow)
	} else {
		a.sel.Reset(cfg.LossWindow)
	}
	if cfg.Policy == PolicyLandmark {
		if a.plan == nil || a.plan.N() != n {
			a.plan = route.NewLandmarkPlan(n)
		}
		a.sel.SetPlan(a.plan)
	}
	if a.agg != nil && a.agg.Hosts() == n && sameNames(a.agg.Methods(), a.names) {
		a.agg.Reset()
	} else {
		a.agg = analysis.NewAggregator(a.names, n)
	}
	agg := a.agg
	agg.Reserve(cfg.expectedPaths(n, len(a.methods)))
	a.rng.Seed(cfg.Seed ^ 0xCA39A160)

	var res *Result
	if retain {
		res = &Result{}
	} else {
		res = &a.res
		*res = Result{}
	}
	res.Config = cfg
	res.Testbed = a.tb
	res.Methods = a.methods
	res.Agg = agg

	c := &a.c
	c.cfg = cfg
	c.tb = a.tb
	c.nw = a.nw
	c.sel = a.sel
	c.plan = a.sel.Plan()
	c.agg = agg
	c.rng = &a.rng
	c.methods = a.methods
	c.queue.reset()
	c.probes.reset()
	c.end = netsim.Time(cfg.Days * float64(netsim.Day))
	c.probeIvl = netsim.FromDuration(cfg.ProbeInterval)
	c.refreshIvl = netsim.FromDuration(cfg.TableRefresh)
	if cap(c.perNodeMethod) < n {
		c.perNodeMethod = make([]int, n)
	} else {
		c.perNodeMethod = c.perNodeMethod[:n]
	}
	c.res = res

	c.seed()
	c.loop()
	c.finishWorkload()
	c.finishScenario()
	agg.Flush()
	if retain {
		// The campaign ran into the arena's aggregator, whose path slots
		// keep the capacity earlier cells grew; the retained result gets
		// a copy sized to exactly the paths this cell observed.
		res.Agg = agg.Clone()
	}
	return res, nil
}

// expectedPaths is the expected number of distinct paths each method's
// measurement probes observe in an n-node cell: every node probes once
// per mean measurement gap, rotating through the methods, to a uniform
// random destination, so k probes per method over the N = n(n-1)
// ordered paths observe N·(1-(1-1/N)^k) of them. It sizes the
// aggregator's path slots up front.
func (c Config) expectedPaths(n, methods int) int {
	paths := float64(n * (n - 1))
	gap := (c.MeasureGapMin + c.MeasureGapMax).Seconds() / 2
	k := float64(n) * (1 + c.Days*86400/gap) / float64(methods)
	return int(math.Ceil(-paths * math.Expm1(k*math.Log1p(-1/paths))))
}
