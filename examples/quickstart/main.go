// Quickstart: build a small simulation, stream one day of telemetry,
// and print the headline user-level IPv6 vs IPv4 contrasts.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"userv6"
	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

func main() {
	// A 10k-user world is plenty to see the paper's shapes.
	sim := userv6.NewSim(userv6.DefaultScenario(10_000))

	// Stream one day of merged benign + abusive telemetry through two
	// analyzers at once: nothing is buffered.
	day := simtime.AnalysisWeekEnd
	users := core.NewUserCentricFor(false)
	addrs := core.NewIPCentric(netaddr.IPv6, 128)
	addrs4 := core.NewIPCentric(netaddr.IPv4, 32)
	var observations int
	sim.GenerateDay(day, func(o telemetry.Observation) {
		observations++
		users.Observe(o)
		addrs.Observe(o)
		addrs4.Observe(o)
	})

	fmt.Printf("one day (%s): %d observations from %d users\n\n", day, observations, users.Users())

	h4 := users.AddrsPerUser(netaddr.IPv4)
	h6 := users.AddrsPerUser(netaddr.IPv6)
	fmt.Printf("addresses per user today:   IPv4 median %d, IPv6 median %d\n", h4.Median(), h6.Median())
	fmt.Printf("single-address users:       IPv4 %.0f%%, IPv6 %.0f%%\n", h4.CDFAt(1)*100, h6.CDFAt(1)*100)

	u4 := addrs4.UsersPerPrefix()
	u6 := addrs.UsersPerPrefix()
	fmt.Printf("single-user addresses:      IPv4 %.0f%%, IPv6 %.0f%%\n", u4.CDFAt(1)*100, u6.CDFAt(1)*100)
	fmt.Printf("max users on one address:   IPv4 %d, IPv6 %d\n\n", u4.Max(), u6.Max())

	// The §4.4 client-address patterns over a full week.
	paper := userv6.NewPaper(sim)
	patterns := paper.ClientAddrPatterns()
	paper.Run()
	pat := patterns()
	fmt.Printf("IPv6 users on EUI-64 (MAC-embedding) addresses: %.1f%%\n", pat.EUI64Share*100)
	fmt.Printf("IPv6 users on 6to4/Teredo transition addresses: %.3f%%\n",
		(pat.SixToFourShare+pat.TeredoShare)*100)
}
