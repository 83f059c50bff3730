// Package simtime models the study calendar. The paper's datasets span
// Jan 23 – Apr 19, 2020 — a window that happens to contain the global
// COVID-19 lockdowns — and several analyses depend on which days are
// weekends and how far a day is into the pandemic. Days are represented
// as integer offsets from the study start so the generators and analyzers
// can use them as array indices.
package simtime

import (
	"fmt"
	"time"
)

// Day is a day index relative to the study start (Day 0 = Jan 23, 2020).
type Day int

// Study window constants.
const (
	// StudyDays is the length of the full study window Jan 23 – Apr 19,
	// 2020 inclusive (88 days).
	StudyDays = 88

	// AnalysisWeekStart is the first day of the Apr 13–19 window on which
	// most of the paper's single-week analyses run.
	AnalysisWeekStart Day = 81
	// AnalysisWeekEnd is the last day (Apr 19) of the analysis week.
	AnalysisWeekEnd Day = 87

	// JanWeekStart / JanWeekEnd bound the Jan 23–29 comparison week.
	JanWeekStart Day = 0
	JanWeekEnd   Day = 6
)

// studyStart is Thursday, January 23, 2020 (UTC).
var studyStart = time.Date(2020, time.January, 23, 0, 0, 0, 0, time.UTC)

// Date returns the calendar date for a day index.
func (d Day) Date() time.Time { return studyStart.AddDate(0, 0, int(d)) }

// String formats the day as its calendar date.
func (d Day) String() string {
	return fmt.Sprintf("day %d (%s)", int(d), d.Date().Format("Jan 2"))
}

// Weekday returns the day of week.
func (d Day) Weekday() time.Weekday { return d.Date().Weekday() }

// IsWeekend reports whether the day is a Saturday or Sunday.
func (d Day) IsWeekend() bool {
	wd := d.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// Phase describes the pandemic period a day belongs to. The paper treats
// mid-March as the global inflection point (Italy locked down Mar 9, the
// first US state Mar 19).
type Phase uint8

const (
	// PrePandemic covers days before lockdowns began affecting mobility.
	PrePandemic Phase = iota
	// Transition covers the ramp between the first European lockdowns
	// and broad global lockdown (Mar 9 – Mar 21).
	Transition
	// Lockdown covers the fully locked-down tail of the study window.
	Lockdown
)

// String labels the phase.
func (p Phase) String() string {
	switch p {
	case PrePandemic:
		return "pre-pandemic"
	case Transition:
		return "transition"
	default:
		return "lockdown"
	}
}

// Phase boundaries as day indices: Mar 9 is day 46, Mar 22 is day 59.
const (
	transitionStart Day = 46
	lockdownStart   Day = 59
)

// PhaseOf returns the pandemic phase of a day.
func PhaseOf(d Day) Phase {
	switch {
	case d < transitionStart:
		return PrePandemic
	case d < lockdownStart:
		return Transition
	default:
		return Lockdown
	}
}

// LockdownIntensity returns how locked-down the world is on day d, from
// 0 (normal mobility) to 1 (full lockdown), ramping linearly through the
// transition window. Population mobility models scale their
// enterprise/travel behavior by this factor.
func LockdownIntensity(d Day) float64 {
	switch {
	case d < transitionStart:
		return 0
	case d >= lockdownStart:
		return 1
	default:
		return float64(d-transitionStart) / float64(lockdownStart-transitionStart)
	}
}
