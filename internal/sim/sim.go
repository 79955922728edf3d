// Package sim replays an access trace against a live replica placement
// heuristic and measures the achieved QoS and the infrastructure cost on
// the same scale as the MC-PERF bounds (storage object-hours plus replica
// creations). This is the evaluation harness behind the paper's Figure 2:
// "Deployed heuristics are evaluated using simulation... using their actual
// evaluation interval".
package sim

import (
	"errors"
	"fmt"
	"time"

	"wideplace/internal/topology"
	"wideplace/internal/workload"
)

// Origin is the serving-source value meaning "fetched from the origin
// node"; heuristics may also return any node index.
const Origin = -1

// Env gives a heuristic access to the system and to the placement tracker
// through which all replica creations and evictions must flow.
type Env struct {
	Topo    *topology.Topology
	Objects int
	Tlat    float64
	Tracker *Tracker
}

// Heuristic is a live replica placement algorithm under simulation.
type Heuristic interface {
	// Name identifies the heuristic in reports.
	Name() string
	// Attach is called once before the replay starts.
	Attach(env *Env) error
	// OnRead handles one read at a node and returns the node the request
	// was served from (Origin for the origin server). Placement changes
	// go through env.Tracker.
	OnRead(node, object int, at time.Duration) int
	// OnIntervalStart is called at every evaluation-interval boundary
	// (interval index and its start time); periodic heuristics recompute
	// placement here.
	OnIntervalStart(interval int, at time.Duration)
	// ProvisionedObjectHours returns the storage the heuristic provisions
	// over the horizon (e.g. cache capacity times node count times hours),
	// or a negative value to charge actual tracked usage instead.
	ProvisionedObjectHours(horizon time.Duration) float64
}

// Tracker records replica placements over time and accumulates the
// storage (object-hours) and creation cost components.
type Tracker struct {
	n, k     int
	origin   int
	stored   []map[int]time.Duration // per node: object -> creation time
	objHours float64
	creates  int
}

// NewTracker returns a tracker for n nodes and k objects.
func NewTracker(n, k, origin int) *Tracker {
	t := &Tracker{n: n, k: k, origin: origin, stored: make([]map[int]time.Duration, n)}
	for i := range t.stored {
		t.stored[i] = make(map[int]time.Duration)
	}
	return t
}

// Stored reports whether node n currently holds object k.
func (t *Tracker) Stored(n, k int) bool {
	_, ok := t.stored[n][k]
	return ok
}

// Count returns the number of objects currently stored on node n.
func (t *Tracker) Count(n int) int { return len(t.stored[n]) }

// Create places object k on node n at time 'at'. Creating on the origin or
// duplicating an existing replica is a no-op.
func (t *Tracker) Create(n, k int, at time.Duration) {
	if n == t.origin || t.Stored(n, k) {
		return
	}
	t.stored[n][k] = at
	t.creates++
}

// Evict removes object k from node n at time 'at', accumulating its
// storage hours.
func (t *Tracker) Evict(n, k int, at time.Duration) {
	created, ok := t.stored[n][k]
	if !ok {
		return
	}
	t.objHours += (at - created).Hours()
	delete(t.stored[n], k)
}

// finish closes all open placements at the horizon.
func (t *Tracker) finish(horizon time.Duration) {
	for n := range t.stored {
		for k, created := range t.stored[n] {
			t.objHours += (horizon - created).Hours()
			delete(t.stored[n], k)
		}
	}
}

// HoldersOn returns the objects currently stored on node n, in no
// particular order.
func (t *Tracker) HoldersOn(n int) []int {
	out := make([]int, 0, len(t.stored[n]))
	for k := range t.stored[n] {
		out = append(out, k)
	}
	return out
}

// Metrics reports the outcome of a simulation run on the same cost scale
// as the MC-PERF bounds.
type Metrics struct {
	Heuristic string
	// Cost components: Alpha * storage object-hours + Beta * creations.
	StorageCost  float64
	CreationCost float64
	Cost         float64
	// QoS achieved: overall and the minimum across nodes with reads
	// (the per-user view of the paper's goal).
	Served        int
	WithinTlat    int
	QoS           float64
	MinNodeQoS    float64
	PerNodeQoS    []float64
	AvgLatency    float64
	Creations     int
	ObjectHours   float64
	CacheCapacity int // echo of the tuned parameter, when applicable
	// PerInterval breaks QoS attainment and replica churn down by
	// evaluation interval — the trajectory view the online placement
	// controller is scored on. Intervals past the last access are absent.
	PerInterval []IntervalMetrics
}

// IntervalMetrics is one evaluation interval's slice of a run: how much of
// the interval's demand met the latency threshold, and how many replicas
// the heuristic created entering or during the interval (its churn).
type IntervalMetrics struct {
	Interval   int     `json:"interval"`
	Served     int     `json:"served"`
	WithinTlat int     `json:"withinTlat"`
	QoS        float64 `json:"qos"`
	Creations  int     `json:"creations"`
}

// Config drives Run.
type Config struct {
	Topo  *topology.Topology
	Trace *workload.Trace
	// Interval is the heuristic's evaluation interval for OnIntervalStart
	// callbacks (0 = one interval spanning the whole trace).
	Interval time.Duration
	// Tlat is the QoS latency threshold in milliseconds.
	Tlat float64
	// Alpha and Beta are the unit costs (storage per object-hour, replica
	// creation).
	Alpha, Beta float64
}

// Run replays the trace against the heuristic and returns its metrics.
func Run(cfg Config, h Heuristic) (*Metrics, error) {
	if cfg.Topo == nil || cfg.Trace == nil {
		return nil, errors.New("sim: config needs a topology and trace")
	}
	if cfg.Topo.N != cfg.Trace.NumNodes {
		return nil, fmt.Errorf("sim: topology has %d nodes, trace has %d", cfg.Topo.N, cfg.Trace.NumNodes)
	}
	tracker := NewTracker(cfg.Topo.N, cfg.Trace.NumObjects, cfg.Topo.Origin)
	env := &Env{Topo: cfg.Topo, Objects: cfg.Trace.NumObjects, Tlat: cfg.Tlat, Tracker: tracker}
	if err := h.Attach(env); err != nil {
		return nil, fmt.Errorf("attach %s: %w", h.Name(), err)
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = cfg.Trace.Duration
	}
	m := &Metrics{Heuristic: h.Name(), PerNodeQoS: make([]float64, cfg.Topo.N)}
	nodeServed := make([]int, cfg.Topo.N)
	nodeWithin := make([]int, cfg.Topo.N)
	totalLatency := 0.0

	next := 0 // next interval index to announce
	lastCreates := 0
	ensureInterval := func(i int) *IntervalMetrics {
		for len(m.PerInterval) <= i {
			m.PerInterval = append(m.PerInterval, IntervalMetrics{Interval: len(m.PerInterval)})
		}
		return &m.PerInterval[i]
	}
	// flushCreates attributes replica creations since the last flush to
	// interval i — boundary creations to the interval being entered,
	// mid-interval (reactive) creations to the current one.
	flushCreates := func(i int) {
		if d := tracker.creates - lastCreates; d > 0 {
			ensureInterval(i).Creations += d
			lastCreates = tracker.creates
		}
	}
	for _, a := range cfg.Trace.Accesses {
		for next == 0 || a.At >= time.Duration(next)*interval {
			h.OnIntervalStart(next, time.Duration(next)*interval)
			flushCreates(next)
			next++
		}
		if a.Write {
			continue // update traffic is outside Figure 2's scope
		}
		src := h.OnRead(a.Node, a.Object, a.At)
		flushCreates(next - 1)
		var lat float64
		if src == Origin {
			lat = cfg.Topo.Latency[a.Node][cfg.Topo.Origin]
		} else {
			if src < 0 || src >= cfg.Topo.N {
				return nil, fmt.Errorf("sim: %s served node %d from invalid source %d", h.Name(), a.Node, src)
			}
			if src != cfg.Topo.Origin && !tracker.Stored(src, a.Object) {
				return nil, fmt.Errorf("sim: %s served object %d from node %d which does not store it", h.Name(), a.Object, src)
			}
			lat = cfg.Topo.Latency[a.Node][src]
		}
		m.Served++
		nodeServed[a.Node]++
		totalLatency += lat
		im := ensureInterval(next - 1)
		im.Served++
		if lat <= cfg.Tlat {
			m.WithinTlat++
			nodeWithin[a.Node]++
			im.WithinTlat++
		}
	}
	tracker.finish(cfg.Trace.Duration)
	for i := range m.PerInterval {
		if im := &m.PerInterval[i]; im.Served > 0 {
			im.QoS = float64(im.WithinTlat) / float64(im.Served)
		} else {
			im.QoS = 1
		}
	}

	m.Creations = tracker.creates
	m.ObjectHours = tracker.objHours
	if prov := h.ProvisionedObjectHours(cfg.Trace.Duration); prov >= 0 {
		m.StorageCost = cfg.Alpha * prov
	} else {
		m.StorageCost = cfg.Alpha * tracker.objHours
	}
	m.CreationCost = cfg.Beta * float64(tracker.creates)
	m.Cost = m.StorageCost + m.CreationCost
	if m.Served > 0 {
		m.QoS = float64(m.WithinTlat) / float64(m.Served)
		m.AvgLatency = totalLatency / float64(m.Served)
	}
	m.MinNodeQoS = 1
	for n := range m.PerNodeQoS {
		if nodeServed[n] == 0 {
			m.PerNodeQoS[n] = 1
			continue
		}
		q := float64(nodeWithin[n]) / float64(nodeServed[n])
		m.PerNodeQoS[n] = q
		if q < m.MinNodeQoS {
			m.MinNodeQoS = q
		}
	}
	return m, nil
}
