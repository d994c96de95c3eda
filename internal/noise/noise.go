// Package noise implements seeded, reproducible system-noise models for the
// simulated machines: static per-node and per-rank compute-speed imbalance,
// stochastic OS jitter events, and per-message network latency jitter.
//
// Each rank owns an independent random stream seeded from (runSeed, rank), so
// the noise a rank experiences does not depend on the interleaving of other
// ranks' events — runs are reproducible and individual ranks are comparable
// across experiments.
package noise

import (
	"math"
	"math/rand"
	"sync"

	"collsel/internal/netmodel"
	"collsel/internal/prand"
)

// Model is the materialized noise state for one run on one platform.
type Model struct {
	profile netmodel.NoiseProfile
	// speed[r] is the static compute-speed factor of rank r (1.0 = nominal;
	// larger = slower).
	speed []float64
	// rngs[r] is rank r's private stream for dynamic noise, materialized on
	// first draw: seeding a math/rand source is expensive, and worlds with
	// noise disabled (the entire simulation-study grid) never draw at all.
	// The stream is a pure function of (seed, r), so lazy construction
	// yields exactly the values an eagerly-built stream would.
	rngs []*rand.Rand
	// seed is the run seed rank streams derive from; inert models use the
	// historical rank-indexed seeding instead.
	seed  int64
	inert bool
}

// rng returns rank r's private stream, creating it on first use.
func (m *Model) rng(r int) *rand.Rand {
	g := m.rngs[r]
	if g == nil {
		if m.inert {
			g = rand.New(rand.NewSource(int64(r + 1)))
		} else {
			g = rand.New(rand.NewSource(m.seed ^ (0x7f4a7c15f39cac71 * int64(r+1))))
		}
		m.rngs[r] = g
	}
	return g
}

// speedCache memoizes the static per-rank speed vectors. The vector is a
// pure function of (platform, size, seed) — and a decision-table compile
// builds hundreds of worlds over the same few dozen (platform, size, seed)
// triples, each re-seeding a generator (the single most expensive part of
// world construction) to re-derive an identical vector. Platforms are keyed
// by pointer, which callers already treat as immutable after construction.
// The cached slices are shared and never written after publication. The map
// is capped so that churning seeds or platforms cannot grow it without
// bound.
var (
	speedCache   sync.Map // speedKey -> []float64
	speedCacheN  int64
	speedCacheMu sync.Mutex
)

const speedCacheCap = 4096

type speedKey struct {
	p    *netmodel.Platform
	size int
	seed int64
}

// New builds a noise model for size ranks on the given platform, seeded with
// seed. A disabled profile produces an inert model (all factors 1, no jitter).
func New(p *netmodel.Platform, size int, seed int64) *Model {
	m := &Model{
		profile: p.Noise,
		rngs:    make([]*rand.Rand, size),
		seed:    seed,
	}
	k := speedKey{p: p, size: size, seed: seed}
	if v, ok := speedCache.Load(k); ok {
		m.speed = v.([]float64)
		return m
	}
	m.speed = make([]float64, size)
	setup := prand.Get(seed ^ 0x5eed50a1)
	nodeFactor := make([]float64, p.Nodes)
	for n := range nodeFactor {
		nodeFactor[n] = 1.0
		if p.Noise.Enabled && p.Noise.NodeImbalanceFrac > 0 {
			// Slowdowns only: |N(0, frac)| keeps the nominal speed as the
			// fastest, matching how stragglers appear on real systems.
			nodeFactor[n] = 1.0 + math.Abs(setup.NormFloat64())*p.Noise.NodeImbalanceFrac
		}
	}
	for r := 0; r < size; r++ {
		f := nodeFactor[p.NodeOf(r)%p.Nodes]
		if p.Noise.Enabled && p.Noise.RankImbalanceFrac > 0 {
			f *= 1.0 + math.Abs(setup.NormFloat64())*p.Noise.RankImbalanceFrac
		}
		m.speed[r] = f
	}
	prand.Put(setup)
	speedCacheMu.Lock()
	if speedCacheN < speedCacheCap {
		if _, loaded := speedCache.LoadOrStore(k, m.speed); !loaded {
			speedCacheN++
		}
	}
	speedCacheMu.Unlock()
	return m
}

// Inert returns a model with no noise for size ranks, useful as a default.
func Inert(size int) *Model {
	m := &Model{
		speed: make([]float64, size),
		rngs:  make([]*rand.Rand, size),
		inert: true,
	}
	for r := 0; r < size; r++ {
		m.speed[r] = 1
	}
	return m
}

// SpeedFactor returns the static compute slowdown factor of rank r (>= 1).
func (m *Model) SpeedFactor(r int) float64 { return m.speed[r] }

// ComputeNs converts a nominal compute duration for rank r into a noisy one:
// static slowdown plus a possible OS jitter event.
func (m *Model) ComputeNs(r int, nominalNs int64) int64 {
	d := float64(nominalNs) * m.speed[r]
	if m.profile.Enabled && m.profile.OSJitterProb > 0 {
		rng := m.rng(r)
		if rng.Float64() < m.profile.OSJitterProb {
			// Exponentially distributed noise event duration.
			d += rng.ExpFloat64() * m.profile.OSJitterMeanNs
		}
	}
	return int64(d)
}

// LatencyNs applies multiplicative lognormal jitter to a link latency, using
// the sender's stream.
func (m *Model) LatencyNs(sender int, baseNs int64) int64 {
	if !m.profile.Enabled || m.profile.LinkJitterFrac <= 0 {
		return baseNs
	}
	rng := m.rng(sender)
	// Lognormal with median 1: exp(sigma*N(0,1)). Long right tail models the
	// congestion spikes measured on Dragonfly+ systems.
	f := math.Exp(rng.NormFloat64() * m.profile.LinkJitterFrac)
	return int64(float64(baseNs) * f)
}

// Enabled reports whether this model injects any noise.
func (m *Model) Enabled() bool { return m.profile.Enabled }
