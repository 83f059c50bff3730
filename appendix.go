package userv6

// Appendix A of the paper re-runs the user-centric analyses on
// pre-pandemic data to check that the COVID-19 lockdowns did not change
// the conclusions. PandemicComparison reproduces that robustness check:
// the same metrics over a February (pre-lockdown) week and the April
// (lockdown) analysis week.

import (
	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
)

// PandemicWindowMetrics are the Appendix-A metrics for one week window.
type PandemicWindowMetrics struct {
	From, To simtime.Day
	// Addresses per user (weekly medians, Appendix A.3).
	MedianV4Addrs, MedianV6Addrs int
	// Single-/64 user share (prefix diversity, Appendix A.4).
	SingleSlash64Share float64
	// Day-fresh pair shares at the window end (Appendix A.5), with a
	// lookback capped at the window start.
	FreshV4, FreshV6 float64
}

// PandemicComparison computes the metrics for the Feb 12-18 week (days
// 20-26) and the Apr 13-19 analysis week.
type PandemicComparison struct {
	Pre, Lockdown PandemicWindowMetrics
}

// ComparePandemic registers the Appendix-A robustness check: a benign
// UserCentric over the February week beside the analysis week's, and
// Lifespans over each week's 14-day lookback.
func (p *Paper) ComparePandemic() func() PandemicComparison {
	pre := p.windowMetrics(20, 26, p.userCentric(false, 20, 26))
	lockdown := p.windowMetrics(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd, p.weekUserCentric(false))
	return func() PandemicComparison {
		return PandemicComparison{Pre: pre(), Lockdown: lockdown()}
	}
}

// windowMetrics registers the Lifespans of the window [from, to] whose
// users uc holds, and returns the window's metrics reader.
func (p *Paper) windowMetrics(from, to simtime.Day, uc *core.UserCentric) func() PandemicWindowMetrics {
	// Lifespans with a 14-day lookback so both windows use the same
	// horizon (the February window has less history before it).
	ls := p.lifespansAt(false, to, max(to-13, 0), []int{32, 128})
	return func() PandemicWindowMetrics {
		m := PandemicWindowMetrics{From: from, To: to}
		m.MedianV4Addrs = uc.AddrsPerUser(netaddr.IPv4).Median()
		m.MedianV6Addrs = uc.AddrsPerUser(netaddr.IPv6).Median()
		for _, span := range uc.PrefixSpans([]int{64}) {
			if span.Length == 64 {
				m.SingleSlash64Share = span.One
			}
		}
		if h := ls.AgeHist(netaddr.IPv4, 32); h.N() > 0 {
			m.FreshV4 = h.CDFAt(0)
		}
		if h := ls.AgeHist(netaddr.IPv6, 128); h.N() > 0 {
			m.FreshV6 = h.CDFAt(0)
		}
		return m
	}
}
