package workload

// Workload models beyond the paper's WEB and GROUP reproductions. Both
// generators are deterministic in their seed and exist for the scenario
// layer: flash crowds stress reactive placement (demand appears faster
// than a per-interval recomputation can follow) and diurnal shift stresses
// static placement (demand moves between sites over the horizon).

import (
	"time"
)

// FlashCrowdOptions configures StreamFlashCrowd.
type FlashCrowdOptions struct {
	Nodes    int           // number of sites (default 20)
	Objects  int           // number of objects (default 1000)
	Requests int           // total reads, baseline + crowd (default 300_000)
	Duration time.Duration // trace horizon (default 24h)
	Seed     uint64
	// ZipfS is the baseline Zipf popularity exponent (default 1.0) and
	// NodeSkew the baseline per-site activity exponent (default 0.6); the
	// baseline is the WEB model.
	ZipfS    float64
	NodeSkew float64
	// CrowdShare is the fraction of all requests that belong to the crowd
	// burst (default 0.4).
	CrowdShare float64
	// CrowdStart/CrowdWidth place the burst inside the horizon (defaults:
	// start at 1/3 of the horizon, width 1/12 of it — a two-hour spike in
	// a 24-hour day).
	CrowdStart, CrowdWidth time.Duration
	// HotObjects is the number of objects the crowd hammers (default 3).
	// Crowd requests pick uniformly among them and originate uniformly
	// across all sites: the event is global, which is what defeats
	// per-site demand history.
	HotObjects int
	// WriteFraction flags that fraction of accesses as writes during
	// generation; see WebOptions.WriteFraction.
	WriteFraction float64
}

func (o FlashCrowdOptions) withDefaults() FlashCrowdOptions {
	if o.Nodes == 0 {
		o.Nodes = 20
	}
	if o.Objects == 0 {
		o.Objects = DefaultObjects
	}
	if o.Requests == 0 {
		o.Requests = 300_000
	}
	if o.Duration == 0 {
		o.Duration = 24 * time.Hour
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.0
	}
	if o.NodeSkew == 0 {
		o.NodeSkew = 0.6
	}
	if o.CrowdShare == 0 {
		o.CrowdShare = 0.4
	}
	if o.CrowdStart == 0 {
		o.CrowdStart = o.Duration / 3
	}
	if o.CrowdWidth == 0 {
		o.CrowdWidth = o.Duration / 12
	}
	if o.HotObjects == 0 {
		o.HotObjects = 3
	}
	return o
}

// DiurnalOptions configures StreamDiurnal.
type DiurnalOptions struct {
	Nodes    int           // number of sites (default 20)
	Objects  int           // number of objects (default 1000)
	Requests int           // total reads (default 300_000)
	Duration time.Duration // trace horizon (default 24h)
	Seed     uint64
	// ZipfS is the object-popularity Zipf exponent (default 1.0).
	ZipfS float64
	// Zones is the number of time zones sites are dealt into round-robin
	// (default 4). A site's activity peaks when its zone's local day
	// peaks; zone peaks are spread evenly across one Period.
	Zones int
	// Period is the length of one day-night cycle (default 24h).
	Period time.Duration
	// NightFloor is the activity of a zone at its trough relative to its
	// peak, in (0, 1] (default 0.1: nights are quiet, not silent).
	NightFloor float64
	// ObjectDrift rotates object popularity ranks once per Period/Zones
	// step when true, so each zone's day has its own hot set; reactive
	// heuristics then re-learn the hot set as the planet turns.
	ObjectDrift bool
	// WriteFraction flags that fraction of accesses as writes during
	// generation; see WebOptions.WriteFraction.
	WriteFraction float64
}

func (o DiurnalOptions) withDefaults() DiurnalOptions {
	if o.Nodes == 0 {
		o.Nodes = 20
	}
	if o.Objects == 0 {
		o.Objects = DefaultObjects
	}
	if o.Requests == 0 {
		o.Requests = 300_000
	}
	if o.Duration == 0 {
		o.Duration = 24 * time.Hour
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.0
	}
	if o.Zones == 0 {
		o.Zones = 4
	}
	if o.Period == 0 {
		o.Period = 24 * time.Hour
	}
	if o.NightFloor == 0 {
		o.NightFloor = 0.1
	}
	return o
}
