// Package workload generates the load shapes and social-network
// request mixes the paper's experiments need: the Animoto viral ramp
// (Figure 1), diurnal cycles, the post-Halloween write spike (§2.1),
// and a CloudStone-style social application workload (§3.4) over a
// synthetic user/friendship graph with bounded degree.
package workload

import (
	"math"
	"time"
)

// Trace maps time to an aggregate request rate (requests/second).
type Trace interface {
	Rate(t time.Time) float64
}

// Constant is a flat trace.
type Constant float64

// Rate implements Trace.
func (c Constant) Rate(time.Time) float64 { return float64(c) }

// Diurnal models the daily cycle: Base + Amplitude·sin phased so the
// peak lands at PeakHour.
type Diurnal struct {
	Base      float64
	Amplitude float64
	PeakHour  float64 // 0..24, default 14 (2pm)
}

// Rate implements Trace.
func (d Diurnal) Rate(t time.Time) float64 {
	peak := d.PeakHour
	if peak == 0 {
		peak = 14
	}
	h := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	v := d.Base + d.Amplitude*math.Sin((h-peak+6)/24*2*math.Pi)
	if v < 0 {
		return 0
	}
	return v
}

// Spike models a sudden event (the paper's day-after-Halloween photo
// uploads): baseline, then a fast ramp to Magnitude× baseline at At,
// decaying back over Duration.
type Spike struct {
	Baseline  Trace
	At        time.Time
	Rise      time.Duration // ramp-up time, default 10m
	Duration  time.Duration // time above baseline after peak
	Magnitude float64       // peak multiple of baseline, e.g. 5
}

// Rate implements Trace.
func (s Spike) Rate(t time.Time) float64 {
	base := s.Baseline.Rate(t)
	rise := s.Rise
	if rise <= 0 {
		rise = 10 * time.Minute
	}
	switch {
	case t.Before(s.At):
		return base
	case t.Before(s.At.Add(rise)):
		frac := float64(t.Sub(s.At)) / float64(rise)
		return base * (1 + (s.Magnitude-1)*frac)
	case t.Before(s.At.Add(rise).Add(s.Duration)):
		frac := float64(t.Sub(s.At.Add(rise))) / float64(s.Duration)
		return base * (s.Magnitude - (s.Magnitude-1)*frac)
	default:
		return base
	}
}

// Viral models exponential organic growth: Rate doubles every
// DoublingTime from Start until Saturation. This is Figure 1's Animoto
// curve: ~68× growth over three days ≈ doubling every 12 hours.
type Viral struct {
	Start        time.Time
	InitialRate  float64
	DoublingTime time.Duration
	Saturation   float64 // cap (0 = unbounded)
}

// Rate implements Trace.
func (v Viral) Rate(t time.Time) float64 {
	if t.Before(v.Start) {
		return v.InitialRate
	}
	doublings := float64(t.Sub(v.Start)) / float64(v.DoublingTime)
	r := v.InitialRate * math.Pow(2, doublings)
	if v.Saturation > 0 && r > v.Saturation {
		return v.Saturation
	}
	return r
}

// AnimotoTrace reproduces the Figure 1 anecdote at request-rate level:
// the service needed ~50 servers before going viral and 3400+ three
// days later. With capacityPerServer req/s per machine, that is a ramp
// from 50·c to 3400·c over 72 hours.
func AnimotoTrace(start time.Time, capacityPerServer float64) Viral {
	// 50 → 3400 servers over 72h: 2^(72/T) = 68 → T ≈ 11.83h.
	doubling := time.Duration(72 / math.Log2(3400.0/50.0) * float64(time.Hour))
	return Viral{
		Start:        start,
		InitialRate:  50 * capacityPerServer * 0.7, // running at 70% utilisation pre-spike
		DoublingTime: doubling,
		Saturation:   3400 * capacityPerServer * 0.7,
	}
}
