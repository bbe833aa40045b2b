package sparse

import "hetesim/internal/obs"

// Kernel-level observability: every multiply kernel reports its work into
// the process-wide registry, so one /metrics scrape shows how many
// floating-point multiply-adds the reachable-probability chains are
// actually pushing through the CSR kernels and how sparse their outputs
// stay. The counters are bumped once per kernel call (never inside inner
// loops), keeping the overhead a few atomic adds per multiply.
var (
	metMulTotal = obs.Default().Counter("hetesim_sparse_mul_total",
		"SpGEMM (matrix-matrix) kernel invocations, serial and parallel.")
	metMulParallelTotal = obs.Default().Counter("hetesim_sparse_mul_parallel_total",
		"SpGEMM invocations that fanned out across cores.")
	metMulFlops = obs.Default().Counter("hetesim_sparse_mul_flops_total",
		"Multiply-add operations performed by SpGEMM kernels.")
	metVecMulTotal = obs.Default().Counter("hetesim_sparse_vecmul_total",
		"Sparse vector-matrix kernel invocations (single-source propagation).")
	metVecMulFlops = obs.Default().Counter("hetesim_sparse_vecmul_flops_total",
		"Multiply-add operations performed by vector-matrix kernels.")
	metLastMulFlops = obs.Default().Gauge("hetesim_sparse_last_mul_flops",
		"Multiply-adds of the most recent SpGEMM call.")
	metLastMulNNZ = obs.Default().Gauge("hetesim_sparse_last_mul_nnz",
		"Nonzeros in the most recent SpGEMM result.")
)

// recordMul accounts one finished matrix-matrix multiply.
func recordMul(flops, outNNZ int, parallel bool) {
	metMulTotal.Inc()
	if parallel {
		metMulParallelTotal.Inc()
	}
	metMulFlops.Add(uint64(flops))
	metLastMulFlops.Set(float64(flops))
	metLastMulNNZ.Set(float64(outNNZ))
}

// recordVecMul accounts one finished vector-matrix product.
func recordVecMul(flops, _ int, _ bool) {
	metVecMulTotal.Inc()
	metVecMulFlops.Add(uint64(flops))
}
