package core

import (
	"fmt"

	"wideplace/internal/lp"
)

// buildResult couples the compiled LP with the variable index maps needed
// to interpret its solution.
type buildResult struct {
	model *lp.Model

	// storeIdx[n][i][k] is the LP variable of store_nik, or -1 for the
	// origin node (its permanent copies are free constants).
	storeIdx   [][][]int
	createIdx  [][][]int
	coveredIdx [][][]int
	openIdx    []int // per node, -1 when absent

	// originCovered[n] is true when node n's reads are always served by
	// the origin's permanent copy within the threshold.
	originCovered []bool
	// reach[n] lists the placement nodes whose replicas can serve n.
	reach [][]int
	// createOK[n] is nil when creation is always allowed, else [i][k].
	createOK [][][]bool
	// qosRow[n] is the index of node n's QoS constraint row (-1 if the
	// goal is trivially met for n or scope is Overall).
	qosRow []int
	// collectQoS makes addQoSRows record rebind metadata in qosMeta and,
	// for Overall scope, emit the aggregate row even while it is slack —
	// so a compiled problem can be rebound to any attainable goal instead
	// of only the one it was built at. Off for plain one-shot builds,
	// which stay byte-identical to the historical model.
	collectQoS bool
	qosMeta    []qosRowMeta
	// perturb is the tiny objective coefficient placed on store variables
	// of capacity-charged (SC/RC) classes to break the massive dual
	// degeneracy their zero store costs would otherwise cause. The solved
	// objective minus perturb times the maximum possible store mass
	// remains a valid lower bound; perturbSlack is that correction.
	perturb      float64
	perturbSlack float64
}

// buildQoSLP assembles the MC-PERF linear relaxation for a QoS goal
// (constraints 2-6 plus the class constraints of Section 4 and the cost
// extensions of Section 3.2).
func (in *Instance) buildQoSLP(class *Class) (*buildResult, error) {
	return in.buildQoSLPMeta(class, false)
}

// buildQoSLPMeta is buildQoSLP with the rebind-metadata switch exposed;
// collectQoS additionally records per-row goal data (see buildResult).
func (in *Instance) buildQoSLPMeta(class *Class, collectQoS bool) (*buildResult, error) {
	if in.Goal.Kind != QoSGoal {
		return nil, fmt.Errorf("core: buildQoSLP called with goal kind %d", in.Goal.Kind)
	}
	nN, nI, nK := in.Dims()
	origin := in.Topo.Origin
	m := lp.NewModel(lp.Minimize)
	b := &buildResult{
		model:         m,
		storeIdx:      allocIdx(nN, nI, nK),
		createIdx:     allocIdx(nN, nI, nK),
		coveredIdx:    allocIdx(nN, nI, nK),
		openIdx:       make([]int, nN),
		originCovered: make([]bool, nN),
		reach:         in.Reach(class),
		createOK:      in.createAllowed(class),
		qosRow:        make([]int, nN),
		collectQoS:    collectQoS,
	}
	for n := range b.openIdx {
		b.openIdx[n] = -1
		b.qosRow[n] = -1
	}
	for n := 0; n < nN; n++ {
		b.originCovered[n] = in.originReachable(class, n)
	}

	if err := in.addPlacementCore(b, class); err != nil {
		return nil, err
	}

	// Covered variables and constraint (5)+(18): covered_nik <=
	// sum over reachable m of store_mik (within threshold and fetchable).
	// Origin-covered nodes need no variable; unreachable reads stay
	// uncovered.
	for n := 0; n < nN; n++ {
		if b.originCovered[n] {
			continue
		}
		if len(b.reach[n]) == 0 {
			continue
		}
		for i := 0; i < nI; i++ {
			for k := 0; k < nK; k++ {
				if in.Counts.Reads[n][i][k] == 0 {
					continue
				}
				obj := -in.Cost.Gamma * float64(in.Counts.Reads[n][i][k])
				cid := m.AddVar(0, 1, obj, "")
				b.coveredIdx[n][i][k] = cid
				coefs := make([]lp.Coef, 0, len(b.reach[n])+1)
				coefs = append(coefs, lp.Coef{Var: cid, Value: 1})
				for _, mm := range b.reach[n] {
					coefs = append(coefs, lp.Coef{Var: b.storeIdx[mm][i][k], Value: -1})
				}
				m.AddLE(coefs, 0, "")
			}
		}
	}

	// Constraint (2): per-user (or overall) QoS.
	if err := in.addQoSRows(b); err != nil {
		return nil, err
	}

	// Class constraints (16)/(16a) and (17)/(17a).
	in.addStorageConstraint(b, class)
	in.addReplicaConstraint(b, class)

	// Node-opening cost (13)-(15): open_n in [0,1] with cost Zeta, and
	// store_nik <= open_n.
	if in.Cost.Zeta > 0 {
		for n := 0; n < nN; n++ {
			if n == origin {
				continue
			}
			b.openIdx[n] = m.AddVar(0, 1, in.Cost.Zeta, "")
		}
		for n := 0; n < nN; n++ {
			if n == origin {
				continue
			}
			for i := 0; i < nI; i++ {
				for k := 0; k < nK; k++ {
					m.AddLE([]lp.Coef{
						{Var: b.storeIdx[n][i][k], Value: 1},
						{Var: b.openIdx[n], Value: -1},
					}, 0, "")
				}
			}
		}
	}
	return b, nil
}

// addPlacementCore emits the store/create variables (with the class's
// history bound folded into create's existence) and constraints (3)-(4):
// create_nik >= store_nik - store_(n,i-1,k) with store_(n,-1,k) = 0. The
// update-cost extension (12) appears as a per-replica objective surcharge.
//
// When the class carries a storage or replica constraint, the alpha storage
// cost is charged on the provisioned capacity variable instead of on the
// store variables (see addStorageConstraint); combining both constraints in
// one class would double-charge and is rejected.
func (in *Instance) addPlacementCore(b *buildResult, class *Class) error {
	nN, nI, nK := in.Dims()
	origin := in.Topo.Origin
	m := b.model
	chargeCapacity := class != nil && (class.Storage != NoConstraint || class.Replica != NoConstraint)
	if class != nil && class.Storage != NoConstraint && class.Replica != NoConstraint {
		return fmt.Errorf("core: class %s combines storage and replica constraints; not supported", class.Name)
	}
	if chargeCapacity && in.Cost.Alpha > 0 {
		b.perturb = 1e-3 * in.Cost.Alpha
		b.perturbSlack = b.perturb * float64((nN-1)*nI*nK)
	}
	var writeIK [][]float64
	if in.Cost.Delta > 0 {
		writeIK = make([][]float64, nI)
		for i := 0; i < nI; i++ {
			writeIK[i] = make([]float64, nK)
			for n := 0; n < nN; n++ {
				for k := 0; k < nK; k++ {
					writeIK[i][k] += float64(in.Counts.Writes[n][i][k])
				}
			}
		}
	}
	for n := 0; n < nN; n++ {
		if n == origin {
			continue
		}
		for i := 0; i < nI; i++ {
			for k := 0; k < nK; k++ {
				obj := in.Cost.Alpha
				if chargeCapacity {
					// Jitter deterministically per variable: identical
					// perturbations would leave the ties they are meant
					// to break.
					h := uint64(n*2654435761) ^ uint64(i*40503) ^ uint64(k*2246822519)
					h ^= h >> 13
					obj = b.perturb * (0.5 + float64(h%1024)/2048)
				}
				if writeIK != nil {
					obj += in.Cost.Delta * writeIK[i][k]
				}
				b.storeIdx[n][i][k] = m.AddVar(0, 1, obj, "")
				if b.createOK[n] == nil || b.createOK[n][i][k] {
					b.createIdx[n][i][k] = m.AddVar(0, 1, in.Cost.Beta, "")
				}
			}
		}
	}
	for n := 0; n < nN; n++ {
		if n == origin {
			continue
		}
		for i := 0; i < nI; i++ {
			for k := 0; k < nK; k++ {
				coefs := make([]lp.Coef, 0, 3)
				coefs = append(coefs, lp.Coef{Var: b.storeIdx[n][i][k], Value: 1})
				rhs := 0.0
				if i > 0 {
					coefs = append(coefs, lp.Coef{Var: b.storeIdx[n][i-1][k], Value: -1})
				} else if in.initiallyStored(n, k) {
					rhs = 1 // store_(n,-1,k) = 1: holding it needs no create
				}
				if cid := b.createIdx[n][i][k]; cid >= 0 {
					coefs = append(coefs, lp.Coef{Var: cid, Value: -1})
				}
				m.AddLE(coefs, rhs, "")
			}
		}
	}
	return nil
}

// addQoSRows emits constraint (2) for the configured scope. For node n the
// row is: sum over read-positive (i,k) of read*covered >= Tqos*R_n minus
// the constant coverage contributed by the origin's permanent copies.
//
// For PerUser scope the row SET is goal-independent: a row exists exactly
// for nodes with positive read totals that the origin does not cover
// (constCovered is zero there, so the right-hand side Tqos*R_n is
// positive for every Tqos in (0,1]). That invariant is what makes a
// compiled problem rebindable — moving the goal only moves right-hand
// sides, never adds or removes rows.
func (in *Instance) addQoSRows(b *buildResult) error {
	nN, nI, nK := in.Dims()
	var overallCoefs []lp.Coef
	overallRHS := 0.0
	overallTotal, overallConst := 0.0, 0.0
	for n := 0; n < nN; n++ {
		total := 0.0
		constCovered := 0.0
		var coefs []lp.Coef
		for i := 0; i < nI; i++ {
			for k := 0; k < nK; k++ {
				r := float64(in.Counts.Reads[n][i][k])
				if r == 0 {
					continue
				}
				total += r
				switch {
				case b.originCovered[n]:
					constCovered += r
				case b.coveredIdx[n][i][k] >= 0:
					coefs = append(coefs, lp.Coef{Var: b.coveredIdx[n][i][k], Value: r})
				}
			}
		}
		rhs := in.Goal.Tqos*total - constCovered
		switch in.Goal.Scope {
		case PerUser:
			if rhs <= 0 {
				continue // trivially satisfied (e.g. origin-covered nodes)
			}
			maxAttain := 0.0
			for _, c := range coefs {
				maxAttain += c.Value
			}
			if maxAttain < rhs {
				return fmt.Errorf("%w: node %d can cover at most %.4f of reads, goal needs %.4f",
					ErrGoalUnattainable, n, (maxAttain+constCovered)/total, in.Goal.Tqos)
			}
			b.qosRow[n] = b.model.AddGE(coefs, rhs, "")
			if b.collectQoS {
				b.qosMeta = append(b.qosMeta, qosRowMeta{
					node: n, row: b.qosRow[n],
					total: total, constCovered: constCovered, maxAttain: maxAttain,
				})
			}
		case Overall:
			overallCoefs = append(overallCoefs, coefs...)
			overallRHS += rhs
			overallTotal += total
			overallConst += constCovered
		}
	}
	if in.Goal.Scope == Overall && (overallRHS > 0 || b.collectQoS && len(overallCoefs) > 0) {
		maxAttain := 0.0
		for _, c := range overallCoefs {
			maxAttain += c.Value
		}
		if overallRHS > 0 && maxAttain < overallRHS {
			return ErrGoalUnattainable
		}
		// A currently-slack aggregate row (overallRHS <= 0) is emitted only
		// on rebindable builds: it never binds at this goal, but a later
		// Rebind to a higher goal needs the row to exist.
		row := b.model.AddGE(overallCoefs, overallRHS, "")
		if b.collectQoS {
			b.qosMeta = append(b.qosMeta, qosRowMeta{
				node: -1, row: row,
				total: overallTotal, constCovered: overallConst, maxAttain: maxAttain,
			})
		}
	}
	return nil
}

// addStorageConstraint emits the storage-constraint property (16)/(16a).
//
// The paper writes (16) as an equality (every node's usage equals the fixed
// capacity in every interval). Taken literally, the equality is infeasible
// for reactive classes — nothing may be stored during interval 0, forcing
// the capacity (and hence all storage, forever) to zero. The intended
// semantics — confirmed by the paper's own rounding top-up, which pads
// every node's usage to the maximum with extra cost — is capacity charging:
// usage is AT MOST the provisioned capacity, and the alpha storage cost is
// charged on the capacity itself (every node, every interval), not on the
// bytes in use. addPlacementCore therefore zeroes the per-store alpha for
// such classes, and this function charges alpha on the capacity variable.
func (in *Instance) addStorageConstraint(b *buildResult, class *Class) {
	if class == nil || class.Storage == NoConstraint {
		return
	}
	nN, nI, nK := in.Dims()
	m := b.model
	numPlace := nN - 1
	var shared int
	if class.Storage == Uniform {
		// Capacity provisioned on every placement node, every interval.
		shared = m.AddVar(0, float64(nK), in.Cost.Alpha*float64(numPlace*nI), "cap")
	}
	for n := 0; n < nN; n++ {
		if n == in.Topo.Origin {
			continue
		}
		capVar := shared
		if class.Storage == PerEntity {
			capVar = m.AddVar(0, float64(nK), in.Cost.Alpha*float64(nI), "")
		}
		for i := 0; i < nI; i++ {
			coefs := make([]lp.Coef, 0, nK+1)
			for k := 0; k < nK; k++ {
				coefs = append(coefs, lp.Coef{Var: b.storeIdx[n][i][k], Value: 1})
			}
			coefs = append(coefs, lp.Coef{Var: capVar, Value: -1})
			m.AddLE(coefs, 0, "")
		}
	}
}

// addReplicaConstraint emits the replica-constraint property (17)/(17a)
// with the same capacity-charging reading as addStorageConstraint: every
// object is provisioned R replicas (paid for in every interval), usage is
// at most R.
func (in *Instance) addReplicaConstraint(b *buildResult, class *Class) {
	if class == nil || class.Replica == NoConstraint {
		return
	}
	nN, nI, nK := in.Dims()
	m := b.model
	numPlace := nN - 1
	var shared int
	if class.Replica == Uniform {
		// R replicas provisioned for each of the nK objects, each interval.
		shared = m.AddVar(0, float64(numPlace), in.Cost.Alpha*float64(nK*nI), "repl")
	}
	for k := 0; k < nK; k++ {
		repVar := shared
		if class.Replica == PerEntity {
			repVar = m.AddVar(0, float64(numPlace), in.Cost.Alpha*float64(nI), "")
		}
		for i := 0; i < nI; i++ {
			coefs := make([]lp.Coef, 0, numPlace+1)
			for n := 0; n < nN; n++ {
				if n == in.Topo.Origin {
					continue
				}
				coefs = append(coefs, lp.Coef{Var: b.storeIdx[n][i][k], Value: 1})
			}
			coefs = append(coefs, lp.Coef{Var: repVar, Value: -1})
			m.AddLE(coefs, 0, "")
		}
	}
}

// allocIdx allocates an n x i x k index tensor filled with -1.
func allocIdx(n, i, k int) [][][]int {
	backing := make([]int, n*i*k)
	for x := range backing {
		backing[x] = -1
	}
	out := make([][][]int, n)
	for a := 0; a < n; a++ {
		out[a] = make([][]int, i)
		for b := 0; b < i; b++ {
			out[a][b], backing = backing[:k:k], backing[k:]
		}
	}
	return out
}
