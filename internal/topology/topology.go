// Package topology models the wide-area system graph of the MC-PERF
// formulation: a set of sites connected by links with latencies, the
// all-pairs latency matrix derived from shortest paths, and the binary
// reachability matrices (dist, fetch, know) that parameterize the problem
// and the heuristic classes.
//
// The paper's case study uses a 20-node AS-level topology (Telstra) where a
// single hop costs 100-200 ms; Generate reproduces those properties with a
// deterministic synthetic generator.
package topology

import (
	"errors"
	"fmt"
	"math"

	"wideplace/internal/xrand"
)

// Link is an undirected edge between two sites.
type Link struct {
	A, B    int
	Latency float64 // milliseconds
}

// Topology is a set of interconnected sites. Latency holds the all-pairs
// shortest-path access latency in milliseconds; Latency[n][n] is the local
// access latency (0 by default).
type Topology struct {
	N       int
	Links   []Link
	Latency [][]float64
	// Origin is the index of the headquarters/origin node that permanently
	// stores every object.
	Origin int
}

// ErrDisconnected is returned when the link set does not connect all sites.
var ErrDisconnected = errors.New("topology: graph is not connected")

// New builds a topology from explicit links and computes the all-pairs
// latency matrix with Floyd-Warshall.
func New(n int, links []Link, origin int) (*Topology, error) {
	if n <= 0 {
		return nil, errors.New("topology: need at least one node")
	}
	if origin < 0 || origin >= n {
		return nil, fmt.Errorf("topology: origin %d out of range [0, %d)", origin, n)
	}
	t := &Topology{N: n, Links: append([]Link(nil), links...), Origin: origin}
	lat := make([][]float64, n)
	for i := range lat {
		lat[i] = make([]float64, n)
		for j := range lat[i] {
			if i != j {
				lat[i][j] = math.Inf(1)
			}
		}
	}
	for _, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return nil, fmt.Errorf("topology: link %d-%d out of range", l.A, l.B)
		}
		if l.Latency < 0 || math.IsNaN(l.Latency) || math.IsInf(l.Latency, 0) {
			return nil, fmt.Errorf("topology: link %d-%d latency %v must be a finite non-negative number", l.A, l.B, l.Latency)
		}
		if l.Latency < lat[l.A][l.B] {
			lat[l.A][l.B] = l.Latency
			lat[l.B][l.A] = l.Latency
		}
	}
	// Floyd-Warshall all-pairs shortest paths.
	for k := 0; k < n; k++ {
		lk := lat[k]
		for i := 0; i < n; i++ {
			lik := lat[i][k]
			if math.IsInf(lik, 1) {
				continue
			}
			li := lat[i]
			for j := 0; j < n; j++ {
				if v := lik + lk[j]; v < li[j] {
					li[j] = v
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.IsInf(lat[i][j], 1) {
				return nil, fmt.Errorf("%w: no path %d -> %d", ErrDisconnected, i, j)
			}
		}
	}
	t.Latency = lat
	return t, nil
}

// NewFromMatrix builds a topology directly from an explicit all-pairs
// access-latency matrix (milliseconds), for callers that measured their
// network rather than modeling it as links. The matrix must be square,
// every entry finite and non-negative, and the diagonal zero (local access
// is free in the MC-PERF cost model). The matrix is used as given — no
// shortest-path closure is applied — so a non-metric matrix states that
// traffic is routed exactly as measured.
func NewFromMatrix(lat [][]float64, origin int) (*Topology, error) {
	n := len(lat)
	if n == 0 {
		return nil, errors.New("topology: empty latency matrix")
	}
	if origin < 0 || origin >= n {
		return nil, fmt.Errorf("topology: origin %d out of range [0, %d)", origin, n)
	}
	cp := make([][]float64, n)
	for i, row := range lat {
		if len(row) != n {
			return nil, fmt.Errorf("topology: latency matrix row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("topology: latency[%d][%d] = %v must be a finite non-negative number", i, j, v)
			}
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("topology: latency[%d][%d] = %v, local access latency must be 0", i, i, row[i])
		}
		cp[i] = append([]float64(nil), row...)
	}
	return &Topology{N: n, Latency: cp, Origin: origin}, nil
}

// GenOptions configures Generate.
type GenOptions struct {
	N          int     // number of sites (default 20)
	Seed       uint64  // RNG seed
	MinHop     float64 // minimum single-hop latency in ms (default 100)
	MaxHop     float64 // maximum single-hop latency in ms (default 200)
	ExtraLinks int     // redundant links beyond the spanning tree (default N/4)
	Origin     int     // headquarters node index (default 0)
}

func (o GenOptions) withDefaults() GenOptions {
	if o.N == 0 {
		o.N = 20
	}
	if o.MinHop == 0 {
		o.MinHop = 100
	}
	if o.MaxHop == 0 {
		o.MaxHop = 200
	}
	if o.ExtraLinks == 0 {
		o.ExtraLinks = o.N / 4
	}
	return o
}

// Generate builds a deterministic AS-like topology: a preferential-
// attachment tree (which yields the hub-dominated structure of AS graphs)
// plus a few redundant links, with per-hop latencies uniform in
// [MinHop, MaxHop).
func Generate(opts GenOptions) (*Topology, error) {
	opts = opts.withDefaults()
	if opts.N < 2 {
		return nil, errors.New("topology: Generate needs at least two nodes")
	}
	if opts.MinHop < 0 || opts.MaxHop < opts.MinHop {
		return nil, errors.New("topology: hop latency ranges must satisfy 0 <= min <= max")
	}
	rng := xrand.New(opts.Seed)
	degree := make([]int, opts.N)
	var links []Link
	addLink := func(a, b int) {
		links = append(links, Link{A: a, B: b, Latency: rng.Range(opts.MinHop, opts.MaxHop)})
		degree[a]++
		degree[b]++
	}
	// Preferential attachment: node i attaches to an existing node chosen
	// with probability proportional to degree+1.
	addLink(0, 1)
	for i := 2; i < opts.N; i++ {
		total := 0
		for j := 0; j < i; j++ {
			total += degree[j] + 1
		}
		pick := rng.Intn(total)
		target := 0
		for j := 0; j < i; j++ {
			pick -= degree[j] + 1
			if pick < 0 {
				target = j
				break
			}
		}
		addLink(i, target)
	}
	for e := 0; e < opts.ExtraLinks; e++ {
		a := rng.Intn(opts.N)
		b := rng.Intn(opts.N)
		if a != b {
			addLink(a, b)
		}
	}
	return New(opts.N, links, opts.Origin)
}

// Dist returns the binary reachability matrix for a latency threshold:
// Dist(t)[n][m] == true iff node n can access node m within tlat
// milliseconds. A node always reaches itself.
func (t *Topology) Dist(tlat float64) [][]bool {
	d := make([][]bool, t.N)
	for n := 0; n < t.N; n++ {
		d[n] = make([]bool, t.N)
		for m := 0; m < t.N; m++ {
			d[n][m] = t.Latency[n][m] <= tlat
		}
	}
	return d
}

// Closest returns the node in candidates with the lowest latency from n,
// breaking ties by index. It panics if candidates is empty.
func (t *Topology) Closest(n int, candidates []int) int {
	best, bestLat := -1, math.Inf(1)
	for _, c := range candidates {
		if t.Latency[n][c] < bestLat || (t.Latency[n][c] == bestLat && (best < 0 || c < best)) {
			best, bestLat = c, t.Latency[n][c]
		}
	}
	if best < 0 {
		panic("topology: Closest with no candidates")
	}
	return best
}

// Restrict produces the reduced topology over the given open sites used by
// the infrastructure-deployment methodology (paper Sec. 6.2): users of a
// closed site are reassigned to the open site closest to them, and the new
// latency from an open node n to open node m is the original latency.
// The returned assignment maps every original site to the open node that
// now serves it (identity for open sites). The origin must be open.
func (t *Topology) Restrict(open []int) (*Topology, []int, error) {
	if len(open) == 0 {
		return nil, nil, errors.New("topology: Restrict with no open nodes")
	}
	isOpen := make(map[int]bool, len(open))
	newIndex := make(map[int]int, len(open))
	for i, o := range open {
		if o < 0 || o >= t.N {
			return nil, nil, fmt.Errorf("topology: open node %d out of range", o)
		}
		isOpen[o] = true
		newIndex[o] = i
	}
	if !isOpen[t.Origin] {
		return nil, nil, fmt.Errorf("topology: origin node %d must remain open", t.Origin)
	}
	sub := &Topology{N: len(open), Origin: newIndex[t.Origin]}
	sub.Latency = make([][]float64, sub.N)
	for i, a := range open {
		sub.Latency[i] = make([]float64, sub.N)
		for j, b := range open {
			sub.Latency[i][j] = t.Latency[a][b]
		}
	}
	assign := make([]int, t.N)
	for n := 0; n < t.N; n++ {
		if isOpen[n] {
			assign[n] = n
			continue
		}
		assign[n] = t.Closest(n, open)
	}
	return sub, assign, nil
}

// MaxLatency returns the largest pairwise latency (the network diameter in
// milliseconds).
func (t *Topology) MaxLatency() float64 {
	mx := 0.0
	for i := range t.Latency {
		for _, v := range t.Latency[i] {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}
