package simtime

import (
	"testing"
	"time"
)

func TestDayZeroIsJan23(t *testing.T) {
	d := Day(0)
	if got := d.Date(); got.Year() != 2020 || got.Month() != time.January || got.Day() != 23 {
		t.Fatalf("Day(0) = %v", got)
	}
	if d.Weekday() != time.Thursday {
		t.Fatalf("Jan 23 2020 should be Thursday, got %v", d.Weekday())
	}
}

func TestStudyWindowEndsApr19(t *testing.T) {
	last := Day(StudyDays - 1)
	if got := last.Date(); got.Month() != time.April || got.Day() != 19 {
		t.Fatalf("last study day = %v, want Apr 19", got)
	}
}

func TestAnalysisWeek(t *testing.T) {
	if got := AnalysisWeekStart.Date(); got.Month() != time.April || got.Day() != 13 {
		t.Fatalf("AnalysisWeekStart = %v, want Apr 13", got)
	}
	if got := AnalysisWeekEnd.Date(); got.Month() != time.April || got.Day() != 19 {
		t.Fatalf("AnalysisWeekEnd = %v, want Apr 19", got)
	}
	if AnalysisWeekEnd-AnalysisWeekStart != 6 {
		t.Fatal("analysis week should span 7 days")
	}
	if got := JanWeekEnd.Date(); got.Day() != 29 {
		t.Fatalf("JanWeekEnd = %v, want Jan 29", got)
	}
}

func TestWeekends(t *testing.T) {
	// Jan 25-26 2020 was the first weekend of the study (days 2, 3).
	if !Day(2).IsWeekend() || !Day(3).IsWeekend() {
		t.Fatal("days 2-3 should be weekend")
	}
	if Day(0).IsWeekend() || Day(4).IsWeekend() {
		t.Fatal("Thursday/Monday flagged as weekend")
	}
	// Weekends repeat with period 7.
	for d := Day(2); d < StudyDays; d += 7 {
		if !d.IsWeekend() {
			t.Fatalf("%v should be a Saturday", d)
		}
	}
}

func TestPhases(t *testing.T) {
	// Mar 9 2020 = day 46; Mar 22 = day 59.
	if got := Day(46).Date(); got.Month() != time.March || got.Day() != 9 {
		t.Fatalf("day 46 = %v, want Mar 9", got)
	}
	if got := Day(59).Date(); got.Month() != time.March || got.Day() != 22 {
		t.Fatalf("day 59 = %v, want Mar 22", got)
	}
	if PhaseOf(45) != PrePandemic || PhaseOf(46) != Transition || PhaseOf(58) != Transition || PhaseOf(59) != Lockdown {
		t.Fatal("phase boundaries wrong")
	}
	if PrePandemic.String() != "pre-pandemic" || Transition.String() != "transition" || Lockdown.String() != "lockdown" {
		t.Fatal("phase labels wrong")
	}
}

func TestLockdownIntensityMonotone(t *testing.T) {
	prev := -0.001
	for d := Day(0); d < StudyDays; d++ {
		v := LockdownIntensity(d)
		if v < 0 || v > 1 {
			t.Fatalf("intensity(%v) = %v out of range", d, v)
		}
		if v < prev {
			t.Fatalf("intensity not monotone at %v", d)
		}
		prev = v
	}
	if LockdownIntensity(0) != 0 {
		t.Fatal("pre-pandemic intensity should be 0")
	}
	if LockdownIntensity(59) != 1 || LockdownIntensity(87) != 1 {
		t.Fatal("lockdown intensity should be 1")
	}
	mid := LockdownIntensity(52)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("transition intensity = %v, want in (0,1)", mid)
	}
}

func TestDayString(t *testing.T) {
	if got := Day(0).String(); got != "day 0 (Jan 23)" {
		t.Fatalf("String = %q", got)
	}
}
