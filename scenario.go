// Package userv6 reproduces "Towards A User-Level Understanding of IPv6
// Behavior" (Li & Freeman, IMC 2020) as a reusable Go library.
//
// The paper's raw telemetry is proprietary, so this library pairs the
// paper's analysis methodology with a calibrated synthetic substrate:
//
//   - a world model of access networks and their address-assignment
//     mechanics (NAT, CGN, SLAAC privacy extensions, per-session mobile
//     /64s, structured-IID mobile gateways — internal/netmodel);
//   - a synthetic user population and attacker campaigns
//     (internal/population, internal/abuse);
//   - a deterministic streaming telemetry generator
//     (internal/telemetry);
//   - the user-level analyzers that constitute the paper's contribution
//     (internal/core): user-centric and IP-centric behavior, lifespans,
//     actioning ROC simulation, outlier characterization, and the
//     security-policy advisor.
//
// The entry point is a Scenario (the experiment configuration) and a Sim
// built from it. Every figure and table in the paper has a Paper method
// that registers its analyzers; one Paper.Run generates the days they
// read once and feeds them all. See EXPERIMENTS.md for the index.
package userv6

import (
	"userv6/internal/abuse"
	"userv6/internal/netmodel"
	"userv6/internal/population"
)

// ReferenceUsers is the population size the default calibration targets.
// Shared-pool sizes and attacker volume scale linearly from it.
const ReferenceUsers = 200_000

// Scenario configures a simulation run. Construct with DefaultScenario
// and adjust via the With* helpers; the zero value is not usable.
type Scenario struct {
	// Seed drives every random choice in the run.
	Seed uint64
	// Users is the benign population size.
	Users int
	// Population tunes user synthesis; its Users and Seed fields are
	// overridden by the Scenario's.
	Population population.Config
	// Abuse tunes the attacker model; AccountsPerDay is scaled to the
	// population size.
	Abuse abuse.Config
}

// DefaultScenario returns the calibrated scenario at the given
// population size (0 means ReferenceUsers).
func DefaultScenario(users int) Scenario {
	if users <= 0 {
		users = ReferenceUsers
	}
	return Scenario{
		Seed:       1,
		Users:      users,
		Population: population.DefaultConfig(),
		Abuse:      abuse.DefaultConfig(),
	}
}

// WithSeed returns a copy with a different seed.
func (s Scenario) WithSeed(seed uint64) Scenario {
	s.Seed = seed
	return s
}

// Scale returns the pool/volume scale factor implied by the population.
func (s Scenario) Scale() float64 {
	return float64(s.Users) / ReferenceUsers
}

// worldConfig derives the world-model configuration.
func (s Scenario) worldConfig() netmodel.WorldConfig {
	return netmodel.WorldConfig{Seed: s.Seed, Scale: s.Scale()}
}
