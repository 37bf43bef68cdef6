// Command scads-director runs the paper's Figure 2 provisioning
// feedback loop as a standalone demonstration: a chosen workload trace
// plays against a simulated utility-computing cloud in accelerated
// virtual time, while the director observes the SLA monitor, updates
// its performance models, and scales the cluster up and down. Every
// control decision streams to stdout.
//
// Usage:
//
//	scads-director -trace animoto -policy model -duration 72h
//	scads-director -trace diurnal -policy reactive -duration 24h
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"scads/internal/cloudsim"
	"scads/internal/director"
	"scads/internal/sim"
	"scads/internal/workload"
)

func main() {
	var (
		traceName = flag.String("trace", "diurnal", "workload trace: constant|diurnal|spike|viral|animoto")
		policy    = flag.String("policy", "model", "provisioning policy: model|reactive|static")
		duration  = flag.Duration("duration", 24*time.Hour, "simulated duration")
		tick      = flag.Duration("tick", time.Minute, "control interval")
		static    = flag.Int("static-servers", 10, "cluster size for -policy static")
		boot      = flag.Duration("boot-delay", 90*time.Second, "instance boot delay")
		price     = flag.Float64("price", 0.10, "price per machine-hour (USD)")
		capacity  = flag.Float64("capacity", 1000, "requests/second one server sustains")
		every     = flag.Int("print-every", 15, "print every Nth control tick")
	)
	flag.Parse()

	start := time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)
	svc := cloudsim.ServiceModel{
		CapacityPerServer: *capacity,
		Base:              5 * time.Millisecond,
		K:                 30 * time.Millisecond,
	}

	var trace workload.Trace
	switch *traceName {
	case "constant":
		trace = workload.Constant(*capacity * 3)
	case "diurnal":
		trace = workload.Diurnal{Base: *capacity * 3, Amplitude: *capacity * 2.5, PeakHour: 14}
	case "spike":
		trace = workload.Spike{
			Baseline: workload.Constant(*capacity * 2), At: start.Add(6 * time.Hour),
			Rise: 10 * time.Minute, Duration: 4 * time.Hour, Magnitude: 5,
		}
	case "viral":
		trace = workload.Viral{Start: start, InitialRate: *capacity, DoublingTime: 45 * time.Minute}
	case "animoto":
		trace = workload.AnimotoTrace(start, *capacity)
	default:
		log.Fatalf("unknown trace %q", *traceName)
	}

	// A static run is the loop with no director, its fleet fixed at
	// -static-servers.
	var dcfg *director.Config
	policyName := "static"
	initial := 3
	if *traceName == "animoto" {
		initial = 50
	}
	switch *policy {
	case "model":
		dcfg = &director.Config{Policy: director.ModelDriven}
	case "reactive":
		dcfg = &director.Config{Policy: director.Reactive}
	case "static":
		initial = *static
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	if dcfg != nil {
		policyName = dcfg.Policy.String()
	}

	cfg := sim.Config{
		Start:          start,
		Duration:       *duration,
		Tick:           *tick,
		Trace:          trace,
		Service:        svc,
		Cloud:          cloudsim.Options{BootDelay: *boot, PricePerHour: *price},
		InitialServers: initial,
		Director:       dcfg,
	}

	fmt.Printf("# scads-director: trace=%s policy=%s duration=%v tick=%v boot=%v\n",
		*traceName, policyName, *duration, *tick, *boot)
	fmt.Printf("# %-8s %12s %8s %8s %8s %12s %9s %s\n",
		"hour", "rate(req/s)", "running", "booting", "target", "p-latency", "success%", "sla")

	res := sim.Run(cfg)
	for i, tk := range res.Ticks {
		if i%*every != 0 && tk.Met {
			continue
		}
		status := "ok"
		if !tk.Met {
			status = "VIOLATION"
		}
		fmt.Printf("  %-8.2f %12.0f %8d %8d %8d %12s %9.2f %s\n",
			tk.T.Sub(start).Hours(), tk.Rate, tk.Running, tk.Booting, tk.Target,
			tk.Latency.Truncate(time.Microsecond), tk.SuccessRate, status)
	}
	fmt.Printf("\nsummary: peak=%d servers, final=%d, violations=%d/%d (%.2f%%), machine-hours=%.1f, cost=$%.2f\n",
		res.PeakServers, res.FinalServers, res.Violations, len(res.Ticks),
		100*res.ViolationRate(), res.MachineHours, res.CostUSD)
}
