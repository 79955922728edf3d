package workload

// The streaming trace path. A Stream is a deterministic access producer:
// the same generator distributions and seed that back GenerateWeb and
// GenerateGroup, exposed one bounded chunk at a time instead of as a
// materialized []Access. Stream.Counts aggregates the whole trace into
// bucketed Counts in one pass — O(nodes x intervals x objects) memory, not
// O(requests) — which is what lets the paper's GROUP workload run at its
// full 16M-request scale. Materialize() recovers the exact Trace the
// generators produce (same draws, same sort), so the two paths are
// identical by construction and the differential tests hold bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wideplace/internal/xrand"
)

// streamChunk is the bounded buffer size used by the one-pass aggregator.
// 64K accesses x 32 bytes = 2 MiB regardless of trace length.
const streamChunk = 1 << 16

// writeSalt decorrelates the write-flag RNG from the draw RNG when both
// derive from the same spec seed (an unsalted pair would emit identical
// sequences, making "is a write" a function of the access time).
const writeSalt = 0x77726974 // "writ"

// Stream produces a workload's accesses in generation order, chunk by
// chunk. It is single-use and not safe for concurrent use; obtain one from
// StreamWeb, StreamGroup, StreamFlashCrowd or StreamDiurnal.
type Stream struct {
	nodes    int
	objects  int
	requests int
	duration time.Duration
	pos      int
	// fill draws the accesses pos, pos+1, ... into buf, in order. One call
	// per chunk keeps the per-access draw free of indirect calls.
	fill func(buf []Access, pos int)
}

// Nodes returns the site count of the workload.
func (s *Stream) Nodes() int { return s.nodes }

// Objects returns the object count of the workload.
func (s *Stream) Objects() int { return s.objects }

// Requests returns the total number of accesses the stream will produce.
func (s *Stream) Requests() int { return s.requests }

// Duration returns the trace horizon.
func (s *Stream) Duration() time.Duration { return s.duration }

// Next fills buf with the following accesses in generation order (not time
// order) and returns how many it wrote; zero means the stream is drained.
func (s *Stream) Next(buf []Access) int {
	n := len(buf)
	if left := s.requests - s.pos; n > left {
		n = left
	}
	s.fill(buf[:n], s.pos)
	s.pos += n
	return n
}

// Materialize drains the stream into a sorted Trace — exactly the Trace
// the corresponding Generate* function returns for the same options.
func (s *Stream) Materialize() (*Trace, error) {
	if s.pos != 0 {
		return nil, errors.New("workload: stream already consumed")
	}
	tr := &Trace{
		Accesses:   make([]Access, s.requests),
		NumNodes:   s.nodes,
		NumObjects: s.objects,
		Duration:   s.duration,
	}
	s.fill(tr.Accesses, 0)
	s.pos = s.requests
	sortAccesses(tr.Accesses)
	return tr, nil
}

// Counts drains the stream and buckets it into evaluation intervals of
// length delta in one pass, without ever holding the raw accesses: the
// only allocations are one chunk buffer and the count tensors, which it
// returns as they are. The result is identical to
// Materialize().Bucket(delta) — bucketing is a sum, so the sort the
// materialized path performs cannot change it.
func (s *Stream) Counts(delta time.Duration) (*Counts, error) {
	if s.pos != 0 {
		return nil, errors.New("workload: stream already consumed")
	}
	ni, err := Intervals(s.nodes, s.objects, s.duration, delta)
	if err != nil {
		return nil, err
	}
	c := &Counts{
		Nodes: s.nodes, Intervals: ni, Objects: s.objects, Delta: delta,
		Reads:  alloc3(s.nodes, ni, s.objects),
		Writes: alloc3(s.nodes, ni, s.objects),
	}
	chunk := streamChunk
	if s.requests < chunk {
		chunk = s.requests
	}
	if chunk == 0 {
		chunk = 1
	}
	buf := make([]Access, chunk)
	for {
		n := s.Next(buf)
		if n == 0 {
			break
		}
		bucket(c.Reads, c.Writes, buf[:n], delta, ni)
	}
	return c, nil
}

// newStream builds the shared weighted-sampling stream (the WEB and GROUP
// models): per access one uniform draw for the time, one weighted draw for
// the node and one for the object, exactly the draw order generate always
// used. The optional write fraction consumes a separate salted RNG so
// flagging writes never perturbs the draw sequence — a no-write stream is
// bit-identical to the pre-streaming generators.
func newStream(s genSpec) (*Stream, error) {
	if s.nodes <= 0 || s.objects <= 0 || s.requests <= 0 {
		return nil, errors.New("workload: nodes, objects and requests must be positive")
	}
	if s.duration <= 0 {
		return nil, errors.New("workload: duration must be positive")
	}
	if err := validateWriteFraction(s.writeFraction); err != nil {
		return nil, err
	}
	objs, err := cumulative(s.objWeights)
	if err != nil {
		return nil, fmt.Errorf("workload: object popularity: %w", err)
	}
	nodes, err := cumulative(s.nodeWeights)
	if err != nil {
		return nil, fmt.Errorf("workload: site activity: %w", err)
	}
	rng := xrand.New(s.seed)
	wrng := writeRNG(s.seed, s.writeFraction)
	fill := func(buf []Access, _ int) {
		for j := range buf {
			a := Access{
				At:     time.Duration(rng.Float64() * float64(s.duration)),
				Node:   nodes.index(rng.Float64()),
				Object: objs.index(rng.Float64()),
			}
			flagWrite(&a, wrng, s.writeFraction)
			buf[j] = a
		}
	}
	return &Stream{
		nodes: s.nodes, objects: s.objects, requests: s.requests,
		duration: s.duration, fill: fill,
	}, nil
}

// validateExponents checks the Zipf object-popularity and site-activity
// exponents of the WEB and flash-crowd models.
func validateExponents(zipfS, nodeSkew float64) error {
	if err := validateExponent("ZipfS", zipfS); err != nil {
		return err
	}
	return validateExponent("NodeSkew", nodeSkew)
}

func validateWriteFraction(f float64) error {
	if f < 0 || f > 1 || math.IsNaN(f) {
		return errors.New("workload: write fraction must be in [0, 1]")
	}
	return nil
}

// writeRNG returns the dedicated write-flag RNG, nil when no accesses are
// to be flagged (so zero-fraction streams consume no extra entropy).
func writeRNG(seed uint64, fraction float64) *xrand.Rand {
	if fraction <= 0 {
		return nil
	}
	return xrand.New(seed ^ writeSalt)
}

// flagWrite draws once per access, in generation order, and marks the
// access as a write when the draw lands under the fraction.
func flagWrite(a *Access, wrng *xrand.Rand, fraction float64) {
	if wrng != nil && wrng.Float64() < fraction {
		a.Write = true
	}
}

// StreamWeb returns the WEB workload as a stream; GenerateWeb is its
// materialized form.
func StreamWeb(opts WebOptions) (*Stream, error) {
	opts = opts.withDefaults()
	if opts.Nodes <= 0 || opts.Objects <= 0 || opts.Requests <= 0 {
		return nil, errors.New("workload: nodes, objects and requests must be positive")
	}
	if err := validateExponents(opts.ZipfS, opts.NodeSkew); err != nil {
		return nil, err
	}
	objW := zipfWeights(opts.Objects, opts.ZipfS)
	nodeW := zipfWeights(opts.Nodes, opts.NodeSkew)
	return newStream(genSpec{
		nodes: opts.Nodes, objects: opts.Objects, requests: opts.Requests,
		duration: opts.Duration, seed: opts.Seed,
		objWeights: objW, nodeWeights: nodeW,
		writeFraction: opts.WriteFraction,
	})
}

// StreamGroup returns the GROUP workload as a stream; GenerateGroup is its
// materialized form.
func StreamGroup(opts GroupOptions) (*Stream, error) {
	opts = opts.withDefaults()
	if opts.Nodes <= 0 || opts.Objects <= 0 || opts.Requests <= 0 {
		return nil, errors.New("workload: nodes, objects and requests must be positive")
	}
	if !isFinite(opts.MinPop) || !isFinite(opts.MaxPop) || opts.MinPop <= 0 || opts.MaxPop < opts.MinPop {
		return nil, errors.New("workload: need finite 0 < MinPop <= MaxPop")
	}
	rng := xrand.New(opts.Seed ^ 0x5eed)
	objW := make([]float64, opts.Objects)
	for k := range objW {
		objW[k] = rng.Range(opts.MinPop, opts.MaxPop)
	}
	nodeW := make([]float64, opts.Nodes)
	for n := range nodeW {
		nodeW[n] = 1 // all sites highly active
	}
	return newStream(genSpec{
		nodes: opts.Nodes, objects: opts.Objects, requests: opts.Requests,
		duration: opts.Duration, seed: opts.Seed,
		objWeights: objW, nodeWeights: nodeW,
		writeFraction: opts.WriteFraction,
	})
}

// StreamFlashCrowd returns the flash-crowd workload as a stream: a
// WEB-like baseline with a superimposed flash crowd. During [CrowdStart,
// CrowdStart+CrowdWidth) an extra burst of requests — CrowdShare of the
// whole trace — hits a handful of hot objects from every site at once, so
// request density inside the window is far above baseline, which is the
// defining property of the scenario. Generation order is the baseline
// block followed by the crowd block.
func StreamFlashCrowd(opts FlashCrowdOptions) (*Stream, error) {
	opts = opts.withDefaults()
	if opts.Nodes <= 0 || opts.Objects <= 0 || opts.Requests <= 0 {
		return nil, errors.New("workload: nodes, objects and requests must be positive")
	}
	if opts.Duration <= 0 {
		return nil, errors.New("workload: duration must be positive")
	}
	if opts.CrowdShare < 0 || opts.CrowdShare >= 1 {
		return nil, errors.New("workload: CrowdShare must be in [0, 1)")
	}
	if opts.CrowdStart < 0 || opts.CrowdWidth <= 0 || opts.CrowdStart+opts.CrowdWidth > opts.Duration {
		return nil, errors.New("workload: crowd window must fit inside the horizon")
	}
	if opts.HotObjects < 1 || opts.HotObjects > opts.Objects {
		return nil, errors.New("workload: HotObjects must be in [1, Objects]")
	}
	if err := validateWriteFraction(opts.WriteFraction); err != nil {
		return nil, err
	}
	if err := validateExponents(opts.ZipfS, opts.NodeSkew); err != nil {
		return nil, err
	}
	objs, err := cumulative(zipfWeights(opts.Objects, opts.ZipfS))
	if err != nil {
		return nil, fmt.Errorf("workload: object popularity: %w", err)
	}
	nodes, err := cumulative(zipfWeights(opts.Nodes, opts.NodeSkew))
	if err != nil {
		return nil, fmt.Errorf("workload: site activity: %w", err)
	}
	rng := xrand.New(opts.Seed)
	crowd := int(math.Round(opts.CrowdShare * float64(opts.Requests)))
	base := opts.Requests - crowd
	wrng := writeRNG(opts.Seed, opts.WriteFraction)
	fill := func(buf []Access, pos int) {
		for j := range buf {
			var a Access
			if pos+j < base {
				a = Access{
					At:     time.Duration(rng.Float64() * float64(opts.Duration)),
					Node:   nodes.index(rng.Float64()),
					Object: objs.index(rng.Float64()),
				}
			} else {
				a = Access{
					At:     opts.CrowdStart + time.Duration(rng.Float64()*float64(opts.CrowdWidth)),
					Node:   rng.Intn(opts.Nodes),
					Object: rng.Intn(opts.HotObjects),
				}
			}
			flagWrite(&a, wrng, opts.WriteFraction)
			buf[j] = a
		}
	}
	return &Stream{
		nodes: opts.Nodes, objects: opts.Objects, requests: opts.Requests,
		duration: opts.Duration, fill: fill,
	}, nil
}

// StreamDiurnal returns the diurnal-shift workload as a stream: request
// times are uniform over the horizon, but which sites originate them
// follows a sinusoidal day-night cycle offset per time zone, so demand
// circles the globe once per Period. With ObjectDrift the hot object set
// additionally rotates as the active zone changes.
func StreamDiurnal(opts DiurnalOptions) (*Stream, error) {
	opts = opts.withDefaults()
	if opts.Nodes <= 0 || opts.Objects <= 0 || opts.Requests <= 0 {
		return nil, errors.New("workload: nodes, objects and requests must be positive")
	}
	if opts.Duration <= 0 || opts.Period <= 0 {
		return nil, errors.New("workload: duration and period must be positive")
	}
	if opts.Zones < 1 || opts.Zones > opts.Nodes {
		return nil, errors.New("workload: Zones must be in [1, Nodes]")
	}
	if opts.NightFloor <= 0 || opts.NightFloor > 1 {
		return nil, errors.New("workload: NightFloor must be in (0, 1]")
	}
	if err := validateWriteFraction(opts.WriteFraction); err != nil {
		return nil, err
	}
	if err := validateExponent("ZipfS", opts.ZipfS); err != nil {
		return nil, err
	}
	objs, err := cumulative(zipfWeights(opts.Objects, opts.ZipfS))
	if err != nil {
		return nil, fmt.Errorf("workload: object popularity: %w", err)
	}

	// Discretize the cycle: node activity is piecewise constant over
	// steps of Period/steps, which keeps sampling O(1) per access via one
	// precomputed sampler per step.
	const steps = 24
	stepLen := opts.Period / steps
	nodeSteps := make([]*sampler, steps)
	for s := 0; s < steps; s++ {
		w := make([]float64, opts.Nodes)
		for n := 0; n < opts.Nodes; n++ {
			zone := n % opts.Zones
			// Zone z peaks at phase z/Zones of the cycle.
			phase := float64(s)/steps - float64(zone)/float64(opts.Zones)
			day := (1 + math.Cos(2*math.Pi*phase)) / 2 // 1 at peak, 0 at trough
			w[n] = opts.NightFloor + (1-opts.NightFloor)*day
		}
		if nodeSteps[s], err = cumulative(w); err != nil {
			return nil, fmt.Errorf("workload: site activity: %w", err)
		}
	}
	rng := xrand.New(opts.Seed)
	// With drift, rank rotation advances once per zone-step of the cycle.
	driftStep := opts.Period / time.Duration(opts.Zones)
	wrng := writeRNG(opts.Seed, opts.WriteFraction)
	fill := func(buf []Access, _ int) {
		for j := range buf {
			at := time.Duration(rng.Float64() * float64(opts.Duration))
			step := int((at % opts.Period) / stepLen)
			if step >= steps {
				step = steps - 1
			}
			obj := objs.index(rng.Float64())
			if opts.ObjectDrift {
				obj = (obj + int(at/driftStep)*17) % opts.Objects
			}
			a := Access{At: at, Node: nodeSteps[step].index(rng.Float64()), Object: obj}
			flagWrite(&a, wrng, opts.WriteFraction)
			buf[j] = a
		}
	}
	return &Stream{
		nodes: opts.Nodes, objects: opts.Objects, requests: opts.Requests,
		duration: opts.Duration, fill: fill,
	}, nil
}
