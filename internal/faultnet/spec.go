package faultnet

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses the compact text form of a fault Config, the form a
// chaos scenario can be written down in:
//
//	drop=0.1,dup=0.02,reorder=0.05,delay=2ms,delayp=0.2,crash=3@50ms,stall=2@20ms+30ms,seed=7
//
// Keys:
//
//	drop=P     per-packet drop probability, 0..1
//	dup=P      duplication probability, 0..1
//	reorder=P  overtaking-jitter probability, 0..1
//	delay=D    max hold duration (Go duration syntax); enables delay with
//	           probability 1 unless delayp is given
//	delayp=P   delay probability, 0..1
//	crash=N@T  processor N crashes T after start (repeatable)
//	stall=N@T+D  processor N freezes at T for D (repeatable)
//	partition=A-B@T+D  the A<->B link blackholes at T for D, both
//	           directions, healing after (repeatable)
//	seed=N     PRNG seed (default 1)
//
// The returned Config is already validated.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Seed: 1}
	delayP := -1.0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("faults: %q is not key=value (expected e.g. drop=0.1)", part)
		}
		switch key {
		case "drop", "dup", "reorder", "delayp":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return cfg, fmt.Errorf("faults: %s=%q must be a probability in [0,1]", key, val)
			}
			switch key {
			case "drop":
				cfg.Drop = p
			case "dup":
				cfg.Dup = p
			case "reorder":
				cfg.Reorder = p
			case "delayp":
				delayP = p
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("faults: delay=%q must be a positive duration like 2ms", val)
			}
			cfg.DelayMax = d
		case "crash":
			proc, at, err := parseProcAt(val)
			if err != nil {
				return cfg, fmt.Errorf("faults: crash=%q must be proc@time like 3@50ms: %v", val, err)
			}
			cfg.Crashes = append(cfg.Crashes, ProcCrash{Proc: proc, At: at})
		case "stall":
			pa, dur, ok := strings.Cut(val, "+")
			if !ok {
				return cfg, fmt.Errorf("faults: stall=%q must be proc@start+duration like 2@20ms+30ms", val)
			}
			proc, at, err := parseProcAt(pa)
			if err != nil {
				return cfg, fmt.Errorf("faults: stall=%q must be proc@start+duration like 2@20ms+30ms: %v", val, err)
			}
			d, err := time.ParseDuration(dur)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("faults: stall duration %q must be a positive duration like 30ms", dur)
			}
			cfg.Stalls = append(cfg.Stalls, ProcStall{Proc: proc, At: at, For: d})
		case "partition":
			pair, window, ok := strings.Cut(val, "@")
			if !ok {
				return cfg, fmt.Errorf("faults: partition=%q must be procA-procB@start+duration like 1-2@50ms+200ms", val)
			}
			as, bs, ok := strings.Cut(pair, "-")
			if !ok {
				return cfg, fmt.Errorf("faults: partition=%q must name two processors like 1-2@50ms+200ms", val)
			}
			a, errA := strconv.Atoi(as)
			b, errB := strconv.Atoi(bs)
			if errA != nil || errB != nil || a < 0 || b < 0 {
				return cfg, fmt.Errorf("faults: partition=%q has a bad processor id (want e.g. 1-2@50ms+200ms)", val)
			}
			if a == b {
				return cfg, fmt.Errorf("faults: partition=%q must name two distinct processors", val)
			}
			ts, ds, ok := strings.Cut(window, "+")
			if !ok {
				return cfg, fmt.Errorf("faults: partition=%q must schedule a window like 1-2@50ms+200ms", val)
			}
			at, err := time.ParseDuration(ts)
			if err != nil || at < 0 {
				return cfg, fmt.Errorf("faults: partition start %q must be a non-negative duration like 50ms", ts)
			}
			d, err := time.ParseDuration(ds)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("faults: partition duration %q must be a positive duration like 200ms", ds)
			}
			cfg.Partitions = append(cfg.Partitions, LinkPartition{A: a, B: b, At: at, For: d})
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("faults: seed=%q must be an integer", val)
			}
			cfg.Seed = n
		default:
			return cfg, fmt.Errorf("faults: unknown key %q (known: drop dup reorder delay delayp crash stall partition seed)", key)
		}
	}
	if cfg.DelayMax > 0 {
		if delayP >= 0 {
			cfg.Delay = delayP
		} else if cfg.Reorder == 0 {
			cfg.Delay = 1
		}
	} else if delayP > 0 {
		return cfg, fmt.Errorf("faults: delayp set but no delay=<duration> bound")
	}
	if cfg.Reorder > 0 && cfg.DelayMax == 0 {
		return cfg, fmt.Errorf("faults: reorder needs a delay=<duration> jitter bound")
	}
	return cfg, cfg.Validate()
}

func parseProcAt(s string) (int, time.Duration, error) {
	ps, ts, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("missing @")
	}
	proc, err := strconv.Atoi(ps)
	if err != nil || proc < 0 {
		return 0, 0, fmt.Errorf("bad processor id %q", ps)
	}
	at, err := time.ParseDuration(ts)
	if err != nil || at < 0 {
		return 0, 0, fmt.Errorf("bad time %q", ts)
	}
	return proc, at, nil
}

// Summary renders the active knobs for run reports, e.g.
// "drop=10% dup=2% crash=[3@50ms] seed=7".
func (c Config) Summary() string {
	var parts []string
	pct := func(name string, p float64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g%%", name, p*100))
		}
	}
	pct("drop", c.Drop)
	pct("dup", c.Dup)
	pct("reorder", c.Reorder)
	if c.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g%%<=%v", c.Delay*100, c.DelayMax))
	} else if c.DelayMax > 0 {
		parts = append(parts, fmt.Sprintf("jitter<=%v", c.DelayMax))
	}
	for _, cr := range c.Crashes {
		parts = append(parts, fmt.Sprintf("crash=[%d@%v]", cr.Proc, cr.At))
	}
	for _, st := range c.Stalls {
		parts = append(parts, fmt.Sprintf("stall=[%d@%v+%v]", st.Proc, st.At, st.For))
	}
	for _, pt := range c.Partitions {
		parts = append(parts, fmt.Sprintf("partition=[%d-%d@%v+%v]", pt.A, pt.B, pt.At, pt.For))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", c.Seed))
	return strings.Join(parts, " ")
}
