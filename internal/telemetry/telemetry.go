// Package telemetry defines the request-observation event model and the
// streaming generator that turns a synthesized population into the
// telemetry stream the paper's analyses consume.
//
// An Observation aggregates the authenticated requests one user made
// from one source address on one day — exactly the telemetry fields the
// paper collects (timestamp, user ID, source IP, ASN, country), rolled
// up to day granularity, which is the granularity of every analysis in
// the paper. Generation is fully deterministic and streaming: the
// generator emits observations through a callback and retains nothing,
// in the spirit of preallocated single-pass packet decoding.
package telemetry

import (
	"context"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/population"
	"userv6/internal/rng"
	"userv6/internal/simtime"
)

// Observation is the atomic telemetry record: one (day, user, source
// address) triple with its request count and routing metadata.
type Observation struct {
	Day      simtime.Day
	UserID   uint64
	Addr     netaddr.Addr
	ASN      netmodel.ASN
	Country  [2]byte
	Requests uint32
	// Abusive marks observations from labeled abusive accounts.
	Abusive bool
}

// CountryCode returns the observation's country as a string.
func (o Observation) CountryCode() string { return string(o.Country[:]) }

// SetCountry stores a 2-letter country code.
func (o *Observation) SetCountry(code string) {
	if len(code) >= 2 {
		o.Country[0], o.Country[1] = code[0], code[1]
	}
}

// EmitFunc receives generated observations. Implementations must not
// retain the Observation beyond the call (it is a value type, so copying
// is cheap and safe if needed).
type EmitFunc func(Observation)

// GenConfig tunes the behavioral layer of the generator: session rates,
// protocol preference, and the temporal modifiers that produce the
// paper's weekend and pandemic effects.
type GenConfig struct {
	// Session rates per active context-day by kind.
	HomeSessions, MobileSessions, WorkSessions, VPNSessions float64
	// RequestsPerSession is the mean request count per session before
	// activity scaling.
	RequestsPerSession float64
	// V6RequestShare is the fraction of a dual-stack session's requests
	// sent over IPv6 (happy-eyeballs outcome).
	V6RequestShare float64
	// WeekendWorkFactor scales work activity on weekends; the remainder
	// shifts to home. WeekendMobileFactor scales mobile likewise.
	WeekendWorkFactor, WeekendMobileFactor float64
	// LockdownWorkFactor is the share of work activity remaining at
	// full lockdown (rest shifts home); LockdownMobileFactor likewise
	// for mobile.
	LockdownWorkFactor, LockdownMobileFactor float64
}

// DefaultGenConfig returns the calibrated behavioral defaults.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		HomeSessions:         1.8,
		MobileSessions:       2.2,
		WorkSessions:         1.0,
		VPNSessions:          0.6,
		RequestsPerSession:   7,
		V6RequestShare:       0.78,
		WeekendWorkFactor:    0.15,
		WeekendMobileFactor:  0.85,
		LockdownWorkFactor:   0.08,
		LockdownMobileFactor: 0.70,
	}
}

// Generator produces observation streams for a population.
type Generator struct {
	Pop *population.Population
	Cfg GenConfig
	// Seed decorrelates behavior from population structure.
	Seed uint64
}

// NewGenerator returns a generator with calibrated defaults.
func NewGenerator(pop *population.Population, seed uint64) *Generator {
	return &Generator{Pop: pop, Cfg: DefaultGenConfig(), Seed: rng.Derive(seed, "telemetry")}
}

// Generate emits all observations for days [from, to] inclusive, user by
// user, day by day. Order is deterministic: ascending user, then day.
func (g *Generator) Generate(from, to simtime.Day, emit EmitFunc) {
	for i := range g.Pop.Users {
		u := &g.Pop.Users[i]
		for d := from; d <= to; d++ {
			g.UserDay(u, d, emit)
		}
	}
}

// GenerateDay emits all observations for a single day.
func (g *Generator) GenerateDay(day simtime.Day, emit EmitFunc) {
	g.Generate(day, day, emit)
}

// GenerateUsersCtx emits observations for the user-index range [lo, hi)
// over days [from, to]. Because generation is a pure function of (user,
// day), disjoint ranges can be generated concurrently; each goroutine
// gets its own emit. The context is checked before every (user, day)
// batch, so generation stops within one batch of ctx being cancelled
// and returns ctx.Err(). It returns nil when the range was generated to
// completion.
func (g *Generator) GenerateUsersCtx(ctx context.Context, lo, hi int, from, to simtime.Day, emit EmitFunc) error {
	if lo < 0 {
		lo = 0
	}
	if hi > len(g.Pop.Users) {
		hi = len(g.Pop.Users)
	}
	done := ctx.Done()
	for i := lo; i < hi; i++ {
		u := &g.Pop.Users[i]
		for d := from; d <= to; d++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			g.UserDay(u, d, emit)
		}
	}
	return nil
}

// GenerateCtx is Generate with cooperative cancellation (see
// GenerateUsersCtx).
func (g *Generator) GenerateCtx(ctx context.Context, from, to simtime.Day, emit EmitFunc) error {
	return g.GenerateUsersCtx(ctx, 0, len(g.Pop.Users), from, to, emit)
}

// GenerateUsersFromCtx resumes generation of a user-index range ending
// at hi from a (user, day) frontier: it emits days [startDay, to] for
// startUser, then days [from, to] for users (startUser, hi). Because
// generation is a pure function of (user, day), that is exactly the
// part of a GenerateUsersCtx(ctx, lo, hi, from, to, emit) run, for any
// lo <= startUser, from the frontier on; starting at (lo, from) is the
// whole run. It is the resume primitive for a dataset file covering a
// contiguous user range.
func (g *Generator) GenerateUsersFromCtx(ctx context.Context, startUser int, startDay simtime.Day, hi int, from, to simtime.Day, emit EmitFunc) error {
	if startUser < 0 {
		startUser = 0
	}
	if hi > len(g.Pop.Users) {
		hi = len(g.Pop.Users)
	}
	if startDay < from {
		startDay = from
	}
	done := ctx.Done()
	if startUser < hi {
		u := &g.Pop.Users[startUser]
		for d := startDay; d <= to; d++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			g.UserDay(u, d, emit)
		}
	}
	return g.GenerateUsersCtx(ctx, startUser+1, hi, from, to, emit)
}

// UserDay emits the observations of one user on one day. It is the
// deterministic unit of generation: the same (user, day) always yields
// the same observations.
func (g *Generator) UserDay(u *population.User, day simtime.Day, emit EmitFunc) {
	src := rng.New(rng.DeriveN(rng.DeriveN(g.Seed, u.ID), uint64(day)))
	weekend := day.IsWeekend()
	lock := simtime.LockdownIntensity(day)

	// Effective context weights. Work activity lost to lockdowns shifts
	// to the home context (work-from-home); weekend work absence shifts
	// home only for ordinary users — work-only users simply go quiet on
	// weekends, which is what makes lockdown (work happening *at home*
	// every day) and weekends (no work at all) differ, and is the
	// mechanism behind Germany's lockdown IPv6 jump (Appendix A.2).
	shiftToHome := 0.0
	effW := make([]float64, len(u.Contexts))
	for i := range u.Contexts {
		c := &u.Contexts[i]
		w := c.Weight
		switch c.Kind {
		case population.Work:
			lockFactor := 1 - (1-g.Cfg.LockdownWorkFactor)*lock
			weekendFactor := 1.0
			if weekend {
				weekendFactor = g.Cfg.WeekendWorkFactor
			}
			shiftToHome += w * (1 - lockFactor)
			if !u.WorkOnly {
				shiftToHome += w * lockFactor * (1 - weekendFactor)
			}
			w *= lockFactor * weekendFactor
		case population.MobileCtx:
			if weekend {
				w *= g.Cfg.WeekendMobileFactor
			}
			w *= 1 - (1-g.Cfg.LockdownMobileFactor)*lock
		}
		effW[i] = w
	}
	for i := range u.Contexts {
		if u.Contexts[i].Kind == population.Home {
			effW[i] += shiftToHome
		}
	}

	for i := range u.Contexts {
		c := &u.Contexts[i]
		w := effW[i]
		if w <= 0 {
			continue
		}
		var rate float64
		switch c.Kind {
		case population.Home:
			rate = g.Cfg.HomeSessions
		case population.MobileCtx:
			rate = g.Cfg.MobileSessions
		case population.Work:
			rate = g.Cfg.WorkSessions
		default:
			rate = g.Cfg.VPNSessions
		}
		// Session volume tracks the user's overall activity level, which
		// gives the heavy tail of addresses-per-day the paper observes.
		sessions := src.Poisson(rate * w * 2 * u.Activity)
		for s := 0; s < sessions; s++ {
			g.session(u, c, day, s, src, emit)
		}
	}
}

// session emits the observations of one session: up to one IPv6 and one
// IPv4 observation, splitting the session's requests across protocols.
func (g *Generator) session(u *population.User, c *population.Context, day simtime.Day, s int, src *rng.Source, emit EmitFunc) {
	reqs := 1 + src.Poisson(g.Cfg.RequestsPerSession*u.Activity)

	// Device choice: mobile sessions come from the phone (device 0);
	// home/work sessions come from the primary device most of the time,
	// occasionally a secondary one. MAC-embedding (StaticIID) users are
	// modeled with one device so their identifier is genuinely stable.
	device := uint64(0)
	if c.Kind != population.MobileCtx && u.Devices > 1 && !u.StaticIID && src.Bool(0.5) {
		device = 1 + uint64(src.Intn(u.Devices-1))
	}
	// The effective device identity carries the user's globally unique
	// hardware identity so MAC-embedding devices present the same EUI-64
	// identifier on every network; MAC-randomizing devices present a
	// fresh one each day.
	effDevice := u.DeviceBase + device
	if u.MACRandomizing {
		effDevice = device + (u.ID<<10|1000)*(uint64(day)+1)
	}

	v6 := c.Net.V6AddrAt(c.Sub, effDevice, day, s, u.StaticIID)
	// IPv4 bindings are sticky within a day (NAT/CGN keep a public
	// address for the device's active period), so the session index is
	// not part of the benign IPv4 assignment.
	v4 := c.Net.V4AddrAt(c.Sub, day, 0)

	var r6 int
	if v6.IsValid() && v4.IsValid() {
		// Binomial split approximated per-request for small counts.
		for r := 0; r < reqs; r++ {
			if src.Bool(g.Cfg.V6RequestShare) {
				r6++
			}
		}
	} else if v6.IsValid() {
		r6 = reqs
	}
	r4 := reqs - r6

	if r6 > 0 {
		emit(g.obs(u, c, day, v6, r6))
	}
	if r4 > 0 && v4.IsValid() {
		emit(g.obs(u, c, day, v4, r4))
	}
}

func (g *Generator) obs(u *population.User, c *population.Context, day simtime.Day, a netaddr.Addr, reqs int) Observation {
	o := Observation{
		Day:      day,
		UserID:   u.ID,
		Addr:     a,
		ASN:      c.Net.ASN,
		Requests: uint32(reqs),
	}
	o.SetCountry(u.Country)
	return o
}
