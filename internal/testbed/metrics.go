package testbed

import "copa/internal/obs"

// mFigureSeconds times each RunFigure* entry point; a traced caller's
// per-figure spans tell the figures apart. Scenario runs are campaigns
// and report under copa.campaign.*.
var mFigureSeconds = obs.T("copa.testbed.figure_seconds")
