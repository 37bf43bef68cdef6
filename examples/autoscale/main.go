// Autoscale: the Figure 2 feedback loop riding the Figure 1 Animoto
// curve — a deterministic virtual-time simulation in which the
// director watches the SLA monitor, learns a capacity model, forecasts
// demand, and grows the cluster from 50 toward thousands of servers
// without violating the SLA, then gives the machines back.
//
//	go run ./examples/autoscale
package main

import (
	"fmt"
	"time"

	"scads/internal/cloudsim"
	"scads/internal/director"
	"scads/internal/sim"
	"scads/internal/workload"
)

func main() {
	start := time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)
	svc := cloudsim.ServiceModel{
		CapacityPerServer: 1000,
		Base:              5 * time.Millisecond,
		K:                 30 * time.Millisecond,
	}

	// A day of viral growth (doubling every 4 hours = 64x), then the
	// fad passes and load collapses back over the second day.
	up := workload.Viral{Start: start, InitialRate: 2000, DoublingTime: 4 * time.Hour, Saturation: 128000}
	trace := riseAndFall{up: up, peakAt: start.Add(24 * time.Hour), halfLife: 3 * time.Hour}

	res := sim.Run(sim.Config{
		Start:          start,
		Duration:       48 * time.Hour,
		Tick:           time.Minute,
		Trace:          trace,
		Service:        svc,
		Cloud:          cloudsim.Options{BootDelay: 90 * time.Second, PricePerHour: 0.10},
		InitialServers: 4,
		Director:       &director.Config{},
	})

	fmt.Println("hour   load(req/s)  servers  sla      (one day up, one day down)")
	for i, tk := range res.Ticks {
		if i%120 != 0 {
			continue
		}
		bar := ""
		for j := 0; j < tk.Running/4 && j < 60; j++ {
			bar += "#"
		}
		status := "ok"
		if !tk.Met {
			status = "VIOLATION"
		}
		fmt.Printf("%4.0f %12.0f %8d  %-9s %s\n", tk.T.Sub(start).Hours(), tk.Rate, tk.Running, status, bar)
	}
	fmt.Printf("\npeak %d servers, final %d; violations %.2f%% of intervals; bill $%.2f\n",
		res.PeakServers, res.FinalServers, 100*res.ViolationRate(), res.CostUSD)

	// What would the bill have been without scale-down? A static
	// cluster sized for the peak, for the same 48 hours.
	staticNeed := sim.RequiredServers(svc, 128000)
	staticCost := float64(staticNeed) * 48 * 0.10
	fmt.Printf("statically peak-provisioned (%d servers x 48h): $%.2f  ->  elasticity saved %.0f%%\n",
		staticNeed, staticCost, 100*(1-res.CostUSD/staticCost))
}

// riseAndFall wraps a viral ramp with an exponential decay after the
// fad peaks.
type riseAndFall struct {
	up       workload.Viral
	peakAt   time.Time
	halfLife time.Duration
}

func (r riseAndFall) Rate(t time.Time) float64 {
	if t.Before(r.peakAt) {
		return r.up.Rate(t)
	}
	peak := r.up.Rate(r.peakAt)
	halvings := float64(t.Sub(r.peakAt)) / float64(r.halfLife)
	rate := peak
	for i := 0; i < int(halvings); i++ {
		rate /= 2
	}
	// Fractional halving for smoothness.
	frac := halvings - float64(int(halvings))
	rate *= 1 - frac/2
	floor := r.up.InitialRate
	if rate < floor {
		return floor
	}
	return rate
}
