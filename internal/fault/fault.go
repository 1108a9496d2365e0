// Package fault is the deterministic fault-injection layer of the
// simulation stack: named injection sites (Points) that fire at
// seeded, reproducible rates or on fixed schedules, so robustness
// paths — the host page reclaimer, the link-layer retransmission
// protocol, vmmc's sendReliable backoff (RemapCost, doubled per
// attempt, then a retry) — can be provoked on demand and tested
// byte-for-byte.
//
// The design mirrors obs.Recorder's nil-default contract: every
// component holds a *Point that is nil unless an Injector armed it,
// and every Point method is nil-safe, so the disabled path costs one
// pointer compare and zero allocations on the hot paths.
//
// Determinism: each Point owns a PRNG seeded from the injector seed
// hashed with the site name, so one site's fault schedule depends only
// on (seed, site, its own check count) — never on what other sites do
// or on cross-site call interleaving. One Injector serves one
// simulation run (like one obs.Buffer per run); concurrent runs build
// their own injectors, keeping output byte-identical at any -parallel
// width.
package fault

import (
	"errors"
	"hash/fnv"
	"math/rand"
)

// ErrInjected marks every synthetic failure produced through a Point,
// so tests and degradation paths can tell injected faults from organic
// ones with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Well-known site names. Components accept any site string; these are
// the ones the VMMC cluster (vmmc.Options.Injector) arms.
const (
	// SiteHostPin makes a host pin attempt fail with (injected) frame
	// exhaustion, exercising the reclaim-and-retry path.
	SiteHostPin = "hostos/pin"
	// SiteCacheFill drops a UTLB-cache fill (a failed fetch DMA).
	SiteCacheFill = "tlbcache/fill"
	// SiteFabricDrop vanishes a packet in the switch.
	SiteFabricDrop = "fabric/drop"
	// SiteFabricCorrupt flips a payload byte on the wire.
	SiteFabricCorrupt = "fabric/corrupt"
)

// Config parameterises one site. Rate and Every compose: a check fires
// if the schedule says so or the seeded coin does.
type Config struct {
	// Rate is the probability in [0,1] that one check fires.
	Rate float64
	// Every, when positive, fires deterministically on every Every-th
	// check (after the grace period) — exact schedules for tests.
	Every int64
	// After is a grace period: the first After checks never fire,
	// letting construction-time activity pass before faults start.
	After int64
}

// enabled reports whether the config can ever fire.
func (c Config) enabled() bool { return c.Rate > 0 || c.Every > 0 }

// Plan maps site names to their fault configuration.
type Plan map[string]Config

// Point is one armed injection site. The zero value of the *containing
// field* is a nil pointer, which never fires; only an Injector creates
// Points.
type Point struct {
	site   string
	cfg    Config
	rng    *rand.Rand
	checks int64
	fired  int64
}

// Fire runs one check and reports whether the fault strikes. Nil-safe:
// a nil Point never fires and costs one pointer compare.
func (p *Point) Fire() bool {
	if p == nil {
		return false
	}
	p.checks++
	if p.checks <= p.cfg.After {
		return false
	}
	fire := p.cfg.Every > 0 && (p.checks-p.cfg.After)%p.cfg.Every == 0
	if !fire && p.cfg.Rate > 0 && p.rng.Float64() < p.cfg.Rate {
		fire = true
	}
	if fire {
		p.fired++
	}
	return fire
}

// Site reports the point's site name ("" on nil).
func (p *Point) Site() string {
	if p == nil {
		return ""
	}
	return p.site
}

// Checks reports how many times the point has been consulted.
func (p *Point) Checks() int64 {
	if p == nil {
		return 0
	}
	return p.checks
}

// Fired reports how many checks struck.
func (p *Point) Fired() int64 {
	if p == nil {
		return 0
	}
	return p.fired
}

// Injector owns the armed Points of one simulation run.
type Injector struct {
	seed   int64
	plan   Plan
	points map[string]*Point
}

// NewInjector returns an injector whose Points fire per plan, each
// driven by a PRNG derived from seed and its site name.
func NewInjector(seed int64, plan Plan) *Injector {
	return &Injector{seed: seed, plan: plan, points: make(map[string]*Point)}
}

// Point returns the armed point for site, or nil when the site is not
// in the plan (or its config can never fire) — the zero-overhead
// disabled default. Nil-safe: a nil Injector yields nil Points for
// every site. Repeated calls return the same Point, so one site's
// state is shared by every component holding it.
func (i *Injector) Point(site string) *Point {
	if i == nil {
		return nil
	}
	if p, ok := i.points[site]; ok {
		return p
	}
	cfg, ok := i.plan[site]
	if !ok || !cfg.enabled() {
		return nil
	}
	p := &Point{
		site: site,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(siteSeed(i.seed, site))),
	}
	i.points[site] = p
	return p
}

// Fired reports the total number of faults struck across all points.
func (i *Injector) Fired() int64 {
	if i == nil {
		return 0
	}
	var n int64
	for _, p := range i.points {
		n += p.fired
	}
	return n
}

// FiredAt reports how many faults site has struck.
func (i *Injector) FiredAt(site string) int64 {
	if i == nil {
		return 0
	}
	return i.points[site].Fired()
}

// siteSeed derives the per-site PRNG seed: the injector seed mixed
// with an FNV-1a hash of the site name, so sites draw independent
// streams and arming order is irrelevant.
func siteSeed(seed int64, site string) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return seed ^ int64(h.Sum64())
}
