package lp

// Numerical tolerances of the simplex layer.
const (
	// simplexTol is the primal feasibility / dual optimality tolerance,
	// which presolve also uses for its reductions.
	simplexTol = 1e-7

	// simplexPivTol is the minimum pivot magnitude the ratio tests accept.
	simplexPivTol = 1e-9

	// blandAfter is the number of consecutive degenerate iterations after
	// which pricing switches to Bland's rule.
	blandAfter = 1000
)

// Numerical tolerances of the factorization layer. A test
// (TestFactorTolerancesShared) pins the values and that SparseFactor
// constructs from them.
const (
	// factorPivTol is the minimum pivot magnitude the factorization
	// accepts, both during a full factorization and when absorbing a basis
	// update.
	// An update whose pivot falls below it fails with ErrNumerical and the
	// simplex refactorizes instead.
	factorPivTol = 1e-10

	// factorDropTol is the magnitude below which update fill
	// (Forrest-Tomlin spike and multiplier entries) is dropped as numerical
	// noise rather than stored.
	factorDropTol = 1e-12

	// factorUpdateAccTol bounds the relative disagreement between the
	// Forrest-Tomlin pivot computed through the spike elimination and its
	// independent value from the determinant identity (new diagonal =
	// w[pos] * old diagonal). A larger disagreement means the update -- and
	// therefore every solve after it -- would be inaccurate; the backend
	// fails the update with ErrNumerical and the simplex refactorizes,
	// absorbing the basis change exactly.
	factorUpdateAccTol = 1e-9

	// sparseMaxEtas bounds the Forrest-Tomlin update count before a
	// refactorization is requested. FT updates modify the stored U in place
	// and append only a short row eta per pivot, so the file can run far
	// longer than a product-form eta file without numerical drift or
	// densifying solves — this is what keeps the refactorization count low
	// on big bases.
	sparseMaxEtas = 500

	// luPivThreshold is the threshold-partial-pivoting acceptance factor of
	// the sparse LU: any candidate row within this factor of the largest
	// magnitude may pivot, and the sparsest acceptable row is chosen.
	// Element growth per elimination step is bounded by 1 + 1/threshold.
	luPivThreshold = 0.2

	// sparseFillLimit caps U's fill growth between refactorizations: when
	// update fill pushes nnz(U) beyond this multiple of the freshly
	// factored nnz, the backend requests a refactorization even if the eta
	// budget is not exhausted.
	sparseFillLimit = 4
)
