package core

import "copa/internal/obs"

// Pre-resolved observability handles for the AP pipeline. All are
// registered once at package init so the per-TXOP and per-exchange paths
// never look a metric up by name.
var (
	// CSI cache behaviour (§3.1 coherence-time staleness).
	mCacheHits      = obs.C("copa.core.cache_hits")
	mCacheMisses    = obs.C("copa.core.cache_misses")
	mCacheEvictions = obs.C("copa.core.cache_evictions")

	// ITS exchange outcomes (Fig. 5 three-frame negotiation).
	mSessions           = obs.C("copa.its.sessions")
	mSessionFailures    = obs.C("copa.its.session_failures")
	mSessionsConcurrent = obs.C("copa.its.sessions_concurrent")
	mControlBytes       = obs.H("copa.its.control_bytes", obs.ExpBuckets(64, 2, 12))
	mExchangeSeconds    = obs.T("copa.its.exchange_seconds")

	// Per-cause terminal failures: the aggregate above is kept for
	// compatibility; these attribute it (timeout vs CRC vs the three
	// protocol stages) on /debug/metrics.
	mFailReqBuild       = obs.C("copa.its.session_failures_req_build")
	mFailLeaderDecision = obs.C("copa.its.session_failures_leader_decision")
	mFailAckHandle      = obs.C("copa.its.session_failures_ack_handle")
	mFailTimeout        = obs.C("copa.its.session_failures_timeout")
	mFailCRC            = obs.C("copa.its.session_failures_crc")

	// Transport behaviour of the exchange over a lossy medium, counted
	// per station: retryable leg events, retransmissions, CSMA
	// fallbacks, and followers deferring on a lost verdict.
	mLegTimeouts = obs.C("copa.its.leg_timeouts")
	mLegCRCDrops = obs.C("copa.its.leg_crc_drops")
	mRetries     = obs.C("copa.its.retries")
	mFallbacks   = obs.C("copa.its.fallbacks")
	mDeferrals   = obs.C("copa.its.deferrals")

	// Schedule and cluster simulation loops.
	mScheduleRuns    = obs.C("copa.core.schedule_runs")
	mScheduleSeconds = obs.T("copa.core.schedule_seconds")
	mClusterRounds   = obs.C("copa.core.cluster_rounds")
	mClusterSitOuts  = obs.C("copa.core.cluster_sitouts")
)
