package userv6_test

// Tested godoc examples for the public API.

import (
	"fmt"

	"userv6"
	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/telemetry"
)

// Building a simulation and streaming telemetry through an analyzer.
func ExampleNewSim() {
	sim := userv6.NewSim(userv6.DefaultScenario(1_000))
	uc := core.NewUserCentricFor(false)
	from, _ := userv6.AnalysisWeek()
	sim.GenerateDay(from, uc.Observe)
	fmt.Println(uc.Users() > 500)
	// Output: true
}

// Determinism: the same scenario always produces the same telemetry.
func ExampleScenario_WithSeed() {
	count := func(seed uint64) int {
		sim := userv6.NewSim(userv6.DefaultScenario(500).WithSeed(seed))
		n := 0
		sim.GenerateDay(10, func(telemetry.Observation) { n++ })
		return n
	}
	fmt.Println(count(7) == count(7))
	// Output: true
}

// Running a paper experiment end to end: register the figure, run the
// one generation pass, read the result.
func ExamplePaper_Fig11() {
	paper := userv6.NewPaper(userv6.NewSim(userv6.DefaultScenario(4_000)))
	fig11 := paper.Fig11()
	paper.Run()
	roc := fig11()
	v4, _ := roc.Curves["IPv4"].At(0)
	v6, _ := roc.Curves["/128"].At(0)
	// IPv4 actioning recalls more but at far higher collateral.
	fmt.Println(v4.TPR > v6.TPR, v4.FPR > v6.FPR)
	// Output: true true
}

// Classifying IPv6 address structure.
func Example_classify() {
	for _, s := range []string{
		"2002:c000:201::1",              // 6to4
		"2001:db8::a11:22ff:fe33:4455",  // EUI-64 MAC embedding
		"2600:380:1234:5678::1f3a",      // gateway-style structured IID
		"2001:db8::a1b2:c3d4:e5f6:789a", // privacy/temporary
	} {
		fmt.Println(netaddr.Classify(netaddr.MustParseAddr(s)))
	}
	// Output:
	// 6to4
	// eui64
	// structured-iid
	// random-iid
}
