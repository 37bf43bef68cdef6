package main

import (
	"fmt"
	"log"

	"scads"
	"scads/internal/expgrid"
)

// runE16 closes the Figure 2 loop end to end: three workload
// scenarios (diurnal cycle, flash crowd, hotspot shift) drive the
// SLO-observing director against a real LocalCluster, every scale
// action moving data through the lossless migration path while a
// background writer hammers acked writes. Control-plane metrics
// (SLO-violation minutes, server-hours, cost) are deterministic —
// synthetic telemetry on a virtual clock — and gated via
// the committed BENCH_e16.json baseline; lost/corrupted acked writes
// are a hard zero on every run.
//
// No grid parameters: the scenarios are fully declared in code, and a
// multi-repeat grid row proves the control-plane metrics come back
// bit-identical on every repeat.
func runE16(expgrid.Params) (expgrid.Metrics, error) {
	scenarios := []scads.ElasticScenario{
		scads.ElasticDiurnalScenario(),
		scads.ElasticFlashCrowdScenario(),
		scads.ElasticHotspotShiftScenario(),
	}
	metrics := make(expgrid.Metrics)
	var acked int64
	lost, corrupt := 0, 0
	for _, sc := range scenarios {
		res, err := scads.RunElasticScenario(sc)
		must(err)
		ups, downs := 0, 0
		for _, dec := range res.Decisions {
			if dec.Added > 0 {
				ups++
			}
			if dec.Removed > 0 {
				downs++
			}
		}
		acked += res.AckedWrites
		lost += res.LostWrites
		corrupt += res.CorruptReads
		// The scenarios count minutes in violation of the SLO and price
		// the serving fleet's server-hours, not the cloud's
		// hourly-rounded bill.
		metrics[sc.Name+"_slo_violation_min"] = float64(res.Violations) * sc.Tick.Minutes()
		metrics[sc.Name+"_server_hours"] = res.ServerHours
		metrics[sc.Name+"_cost_usd"] = res.ServerHours * sc.Cloud.PricePerHour
		metrics[sc.Name+"_peak_servers"] = float64(res.PeakServers)
		metrics[sc.Name+"_final_servers"] = float64(res.FinalServers)
		metrics[sc.Name+"_scale_ups"] = float64(ups)
		metrics[sc.Name+"_scale_downs"] = float64(downs)
	}
	metrics["acked_writes"] = float64(acked)
	metrics["lost_acked_writes"] = float64(lost)
	metrics["corrupted_acked_writes"] = float64(corrupt)
	if lost > 0 || corrupt > 0 {
		log.Fatalf("e16: scale events lost acked writes (lost=%d corrupt=%d)", lost, corrupt)
	}
	fmt.Println("zero acked writes lost across all scale events")
	return metrics, nil
}
