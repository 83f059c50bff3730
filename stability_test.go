package userv6

import "testing"

// TestShapeStabilityAcrossSeeds re-checks the headline orderings on two
// additional seeds: the findings must be properties of the model, not of
// one random draw.
func TestShapeStabilityAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed stability is slow")
	}
	for _, seed := range []uint64{11, 29} {
		seed := seed
		t.Run("", func(t *testing.T) {
			paper := NewPaper(NewSim(DefaultScenario(6_000).WithSeed(seed)))
			fig2, fig5, ipcWeek := paper.Fig2(), paper.Fig5And6(false), paper.IPCentricWeek()
			fig11, outliers := paper.Fig11(), paper.Outliers()
			paper.Run()

			// Weekly medians: v6 > v4.
			f2 := fig2()
			if f2.WeekV6.Median() <= f2.WeekV4.Median() {
				t.Errorf("seed %d: weekly medians v6 %d <= v4 %d",
					seed, f2.WeekV6.Median(), f2.WeekV4.Median())
			}

			// Lifespans: v6 far fresher than v4.
			ls := fig5()
			if ls.AgeV6.CDFAt(0) < ls.AgeV4.CDFAt(0)+0.15 {
				t.Errorf("seed %d: freshness gap %.3f vs %.3f",
					seed, ls.AgeV6.CDFAt(0), ls.AgeV4.CDFAt(0))
			}

			// Users per address: v6 nearly single-user.
			ipc := ipcWeek()
			if ipc.V6[128].UsersPerPrefix().CDFAt(1) < 0.9 {
				t.Errorf("seed %d: v6 single-user share %.3f",
					seed, ipc.V6[128].UsersPerPrefix().CDFAt(1))
			}
			if ipc.V4.UsersPerPrefix().CDFAt(1) > 0.7 {
				t.Errorf("seed %d: v4 single-user share %.3f too high",
					seed, ipc.V4.UsersPerPrefix().CDFAt(1))
			}

			// ROC: v4 recall tops at t=0, v6 dominates at low FPR.
			roc := fig11()
			pv4, _ := roc.Curves["IPv4"].At(0)
			p64, _ := roc.Curves["/64"].At(0)
			if pv4.TPR <= p64.TPR {
				t.Errorf("seed %d: v4 TPR %.3f <= /64 TPR %.3f", seed, pv4.TPR, p64.TPR)
			}

			// Outliers: heavy v6 in the gateway ASN.
			out := outliers()
			if out.V6Concentration.Heavy > 0 && out.V6Concentration.TopASN != 20057 {
				t.Errorf("seed %d: heavy v6 ASN = %d", seed, out.V6Concentration.TopASN)
			}
			if out.V4MaxUsers <= out.V6MaxUsers {
				t.Errorf("seed %d: outlier ordering: v4 %d <= v6 %d",
					seed, out.V4MaxUsers, out.V6MaxUsers)
			}
		})
	}
}
