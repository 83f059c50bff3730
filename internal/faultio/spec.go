package faultio

// Failpoint spec parsing — the text form behind `userv6gen gen -faults`
// and the fault-injection test harness. See docs/FAULT_INJECTION.md.
//
// Grammar (';'-separated failpoints):
//
//	failpoint := [name '@'] glob ':' op (':' trigger)* ':' action
//	trigger   := 'n=' NUM   — arm at the NUM-th matching call (1-based)
//	           | 'x=' NUM   — fire NUM times once armed (-1 = forever)
//	           | 'off=' NUM — fire when a write crosses byte offset NUM,
//	                          or on the read that would deliver byte NUM
//	                          (read and write only)
//	           | 'p=' FLOAT — fire each call with probability FLOAT
//	action    := 'err' | 'short' | 'torn' | 'crash'
//
// Examples:
//
//	part-0002.uv6.tmp:write:off=41232:crash
//	flaky@part-*.uv6:read:n=1:x=2:err
//	part-0001.uv6:read:off=300:err
//	*.uv6m.tmp:create:n=2:crash

import (
	"fmt"
	"strconv"
	"strings"
)

// Arm parses a failpoint spec and arms every failpoint it describes.
func (in *Injector) Arm(spec string) error {
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		fp, err := ParseFailpoint(item)
		if err != nil {
			return err
		}
		if err := in.ArmPoint(fp); err != nil {
			return err
		}
	}
	return nil
}

// ParseFailpoint parses one failpoint clause of a spec.
func ParseFailpoint(item string) (Failpoint, error) {
	var fp Failpoint
	fields := strings.Split(item, ":")
	if len(fields) < 3 {
		return fp, fmt.Errorf("faultio: failpoint %q: want glob:op[:trigger...]:action", item)
	}
	glob := fields[0]
	if name, rest, ok := strings.Cut(glob, "@"); ok {
		fp.Name, glob = name, rest
	}
	fp.Path = glob
	fp.Op = Op(fields[1])
	fp.Action = Action(fields[len(fields)-1])
	fp.Offset = -1
	for _, trig := range fields[2 : len(fields)-1] {
		key, val, ok := strings.Cut(trig, "=")
		if !ok {
			return fp, fmt.Errorf("faultio: failpoint %q: trigger %q is not key=value", item, trig)
		}
		switch key {
		case "n":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fp, fmt.Errorf("faultio: failpoint %q: bad n=%q", item, val)
			}
			fp.Nth = n
		case "x":
			n, err := strconv.Atoi(val)
			if err != nil || n == 0 {
				return fp, fmt.Errorf("faultio: failpoint %q: bad x=%q", item, val)
			}
			fp.Times = n
		case "off":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return fp, fmt.Errorf("faultio: failpoint %q: bad off=%q", item, val)
			}
			fp.Offset = n
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p <= 0 || p > 1 {
				return fp, fmt.Errorf("faultio: failpoint %q: bad p=%q", item, val)
			}
			fp.P = p
		default:
			return fp, fmt.Errorf("faultio: failpoint %q: unknown trigger %q", item, key)
		}
	}
	return fp, nil
}
