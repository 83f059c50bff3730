package userv6

import (
	"context"

	"userv6/internal/abuse"
	"userv6/internal/netmodel"
	"userv6/internal/population"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// Sim is a materialized simulation: the constructed world, synthesized
// population, and the benign and abusive telemetry generators. A Sim is
// deterministic: two Sims from equal Scenarios produce identical
// telemetry. Sims are safe for concurrent readers once constructed.
type Sim struct {
	Scenario Scenario
	World    *netmodel.World
	Pop      *population.Population
	Benign   *telemetry.Generator
	Abusive  *abuse.Generator
}

// NewSim builds the simulation from a scenario.
func NewSim(sc Scenario) *Sim {
	world := netmodel.BuildWorld(sc.worldConfig())

	pcfg := sc.Population
	pcfg.Seed = sc.Seed
	pcfg.Users = sc.Users
	pop := population.Synthesize(world, pcfg)

	acfg := sc.Abuse
	acfg.Seed = sc.Seed
	if !sc.AbuseUnscaled {
		acfg.AccountsPerDay = int(float64(acfg.AccountsPerDay) * sc.Scale())
		if acfg.AccountsPerDay < 8 {
			acfg.AccountsPerDay = 8
		}
	}

	return &Sim{
		Scenario: sc,
		World:    world,
		Pop:      pop,
		Benign:   telemetry.NewGenerator(pop, sc.Seed),
		Abusive:  abuse.NewGenerator(world, acfg),
	}
}

// Generate streams the merged benign + abusive telemetry for days
// [from, to] inclusive: first benign users, then abusive accounts, both
// in deterministic order.
func (s *Sim) Generate(from, to simtime.Day, emit telemetry.EmitFunc) {
	s.Benign.Generate(from, to, emit)
	s.Abusive.Generate(from, to, emit)
}

// GenerateCtx is Generate with cooperative cancellation: the benign
// stream checks ctx between (user, day) batches; the abusive stream is
// small and runs uninterrupted once started. Returns ctx.Err() when
// cancelled, nil on completion.
func (s *Sim) GenerateCtx(ctx context.Context, from, to simtime.Day, emit telemetry.EmitFunc) error {
	if err := s.Benign.GenerateCtx(ctx, from, to, emit); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.Abusive.Generate(from, to, emit)
	return nil
}

// UserIndex maps a benign telemetry UserID back to its population
// index, or -1 when no such user exists (e.g. an abusive account ID).
// Synthesis assigns IDs sequentially, so the common case is O(1); the
// scan is a safety net should that ever change.
func (s *Sim) UserIndex(id uint64) int {
	if id < uint64(len(s.Pop.Users)) && s.Pop.Users[id].ID == id {
		return int(id)
	}
	for i := range s.Pop.Users {
		if s.Pop.Users[i].ID == id {
			return i
		}
	}
	return -1
}

// GenerateDay streams one day of merged telemetry.
func (s *Sim) GenerateDay(day simtime.Day, emit telemetry.EmitFunc) {
	s.Generate(day, day, emit)
}

// AnalysisWeek returns the Apr 13-19 window most analyses run on.
func AnalysisWeek() (from, to simtime.Day) {
	return simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd
}
