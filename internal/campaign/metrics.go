package campaign

import (
	"fmt"

	"copa/internal/obs"
)

// Handles resolved once at init; workers and the collector only touch
// atomics on the hot path.
var (
	mRuns          = obs.C("copa.campaign.runs")
	mUnitsDone     = obs.C("copa.campaign.units_done")
	mUnitsFailed   = obs.C("copa.campaign.units_failed")
	mUnitsResumed  = obs.C("copa.campaign.units_resumed")
	mUnitsInFlight = obs.G("copa.campaign.units_in_flight")
	mTopologies    = obs.C("copa.campaign.topologies")
	mUnitSeconds   = obs.T("copa.campaign.unit_seconds")
	// mUnitsPerSec is the collector's running completion rate for this
	// campaign (units finished / elapsed wall time).
	mUnitsPerSec = obs.G("copa.campaign.units_per_sec")
	// mCheckpointUnix is the wall time of the last journal append;
	// checkpoint age is "now − this".
	mCheckpointUnix = obs.G("copa.campaign.checkpoint_last_write_unixsec")
	// mETASeconds is the collector's remaining-work estimate at the
	// current completion rate (0 until the first unit of a run lands).
	mETASeconds = obs.G("copa.campaign.eta_seconds")
)

// shardGauges resolves one completion-fraction gauge per shard index,
// named copa.campaign.shard_progress.s<k>. Shard counts are small and
// stable across a process's campaigns, so repeated Run calls resolve
// the same handles.
func shardGauges(shards int) []*obs.Gauge {
	gs := make([]*obs.Gauge, shards)
	for sh := range gs {
		gs[sh] = obs.G(fmt.Sprintf("copa.campaign.shard_progress.s%d", sh))
	}
	return gs
}
