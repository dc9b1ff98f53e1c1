package testbed

import "copa/internal/obs"

// Handles resolved once at init; RunScenario's per-topology workers only
// touch atomics.
var (
	mScenarioRuns    = obs.C("copa.testbed.scenario_runs")
	mScenarioSeconds = obs.T("copa.testbed.scenario_seconds")
	mTopologies      = obs.C("copa.testbed.topologies")
	mTopologySeconds = obs.T("copa.testbed.topology_seconds")
	// mTopologyAggMbps distributes per-topology COPA aggregate throughput
	// (both clients, Mb/s) — the population behind Figs. 10–13.
	mTopologyAggMbps = obs.H("copa.testbed.topology_agg_mbps", obs.LinearBuckets(0, 25, 16))
	// mFigureSeconds times each RunFigure* entry point; a traced caller's
	// per-figure spans tell the figures apart.
	mFigureSeconds = obs.T("copa.testbed.figure_seconds")
)
