package misdp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scip"
)

// This file is the analogue of misdp_plugins.cpp in the paper's
// ug_scip_applications/MISDP: the complete glue code turning the
// sequential SCIP-SDP plugin set into ug[SCIP-SDP,*]. The racing
// settings ladder alternates LP- and SDP-based configurations, which is
// how ug[SCIP-SDP,*] becomes a hybrid solver choosing the better
// relaxation per instance.

// NewApp registers the SCIP-SDP user plugins for the ug[SCIP-*,*] glue
// layer, yielding ug[SCIP-SDP,*]. ladder is the number of racing
// settings (the paper uses 32; Settings[0] — the default outside racing
// — is the SDP-based configuration, matching SCIP-SDP's default).
func NewApp(instance *MISDP, ladder int) core.App {
	if ladder < 2 {
		ladder = 32
	}
	// The ladder itself provides the default: settings "1:sdp" is the
	// SDP-based configuration SCIP-SDP uses sequentially. Keeping the
	// ladder unprefixed makes racing with w workers use settings 1..w,
	// i.e. alternating SDP/LP — half and half, as the paper describes.
	settings := SettingsLadder(ladder)
	return core.App{
		Name:        "SCIP-SDP",
		Def:         &Def{},
		Data:        instance,
		MakePlugins: func() *scip.Plugins { return NewPlugins() },
		Settings:    settings,
	}
}

// NewAppMode is NewApp for a solution mode: "lp" makes the LP
// cutting-plane configuration the default outside racing; "sdp",
// "hybrid" and "" keep the SDP-based one. Whether a run races is the
// caller's setting, not the mode's. Any other mode is an error.
func NewAppMode(instance *MISDP, ladder int, mode string) (core.App, error) {
	app := NewApp(instance, ladder)
	switch mode {
	case "", "sdp", "hybrid":
	case "lp":
		app.Settings = append([]scip.Settings{LPSettings()}, app.Settings...)
	default:
		return core.App{}, fmt.Errorf("unknown mode %q (want sdp, hybrid or lp)", mode)
	}
	return app, nil
}
