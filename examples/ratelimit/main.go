// Rate-limit threshold derivation: size per-address and per-prefix
// request budgets from the measured user populations, the §7.2
// rate-limiting guidance.
//
// IPv4 thresholds must be generous because a single address can front
// thousands of users; IPv6 thresholds can be tight because addresses are
// nearly single-user — except for a small, predictable set of heavy
// gateway addresses that deserve a dedicated policy.
//
// Run with: go run ./examples/ratelimit
package main

import (
	"fmt"
	"os"

	"userv6"
	"userv6/internal/report"
	"userv6/internal/stats"
)

func main() {
	sim := userv6.NewSim(userv6.DefaultScenario(20_000))
	paper := userv6.NewPaper(sim)
	ipcWeek, advise := paper.IPCentricWeek(), paper.Advise()
	paper.Run()
	ipc := ipcWeek()

	// Benign user population quantiles per granularity: a rate limiter
	// that budgets R requests per legitimate user can multiply these.
	t := report.NewTable("granularity", "P50 users", "P99 users", "P99.9 users", "max")
	rows := []struct {
		name string
		h    *stats.IntHist
	}{
		{"IPv4 address", ipc.V4.BenignPerPrefix()},
		{"IPv6 address", ipc.V6[128].BenignPerPrefix()},
		{"IPv6 /64", ipc.V6[64].BenignPerPrefix()},
		{"IPv6 /48", ipc.V6[48].BenignPerPrefix()},
	}
	for _, r := range rows {
		t.Row(r.name, r.h.QuantileInt(0.5), r.h.QuantileInt(0.99), r.h.QuantileInt(0.999), r.h.Max())
	}
	t.Write(os.Stdout)

	// Identify the heavy IPv6 addresses that need carve-outs: the paper
	// found they concentrate in one mobile-gateway ASN and carry a
	// recognizable structured-IID signature.
	thresh := sim.Scenario.Users / 1500
	if thresh < 20 {
		thresh = 20
	}
	conc := ipc.V6[128].ConcentrationAbove(thresh, sim.ASNOf)
	fmt.Printf("\nheavy IPv6 addresses (>%d users/week): %d\n", thresh, conc.Heavy)
	if conc.Heavy > 0 {
		fmt.Printf("  owned by %d ASN(s); top: AS%d (%s) with %s\n",
			conc.ASNs, conc.TopASN, sim.World.ASNName(conc.TopASN), report.Percent(conc.TopASNShare))
		fmt.Printf("  structured-IID signature on %s of them -> allowlist by signature, not by observed load\n",
			report.Percent(conc.StructuredShare))
	}

	// The v4-equivalence mapping: where existing IPv4 rate-limit logic
	// should be attached in IPv6 space.
	a := advise(0.001)
	fmt.Printf("\nIPv4-address rate limits translate to IPv6 /%d prefixes\n", a.RateLimitV4EquivalentLength)
	fmt.Printf("budget %d legitimate user(s) per IPv6 address (99.9th percentile)\n", a.RateLimitUsersPerV6Addr)
}
