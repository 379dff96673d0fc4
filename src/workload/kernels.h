#ifndef DMS_WORKLOAD_KERNELS_H
#define DMS_WORKLOAD_KERNELS_H

/**
 * @file
 * Hand-built DDGs of classic innermost loops from DSP and numeric
 * codes — the domains the paper targets. They serve as readable
 * examples, unit-test fixtures, and a sanity cross-check for the
 * synthetic suite.
 */

#include <string>
#include <vector>

#include "ir/ddg.h"

namespace dms {

/** A schedulable innermost loop. */
struct Loop
{
    std::string name;
    Ddg ddg;             ///< original body (unroll factor 1)
    long tripCount = 100;
};

/**
 * Small fluent helper for building loop bodies. Operand slots are
 * managed explicitly: binary helpers feed both slots; unary
 * variants leave slot 1 free (loop-invariant operand) so a
 * recurrence back-edge can claim it later.
 */
class LoopBuilder
{
  public:
    explicit LoopBuilder(LatencyModel lat = LatencyModel());

    OpId load(int stream, int offset = 0);
    OpId constant(std::int64_t v);

    OpId add(OpId a, OpId b);
    OpId sub(OpId a, OpId b);
    OpId mul(OpId a, OpId b);
    OpId div(OpId a, OpId b);

    /** Binary op with slot 1 loop-invariant (free for back-edges). */
    OpId add1(OpId a);
    OpId sub1(OpId a);
    OpId mul1(OpId a);

    OpId store(int stream, OpId value, int offset = 0);

    /** Raw flow edge (latency from the source opcode). */
    EdgeId flow(OpId src, OpId dst, int slot, int distance);

    /** Memory-ordering edge. */
    EdgeId memDep(OpId src, OpId dst, int distance, int latency = 1);

    /** Anti-dependence edge. */
    EdgeId antiDep(OpId src, OpId dst, int distance);

    const Ddg &ddg() const { return ddg_; }

    /** Finish: verifies and returns the body. */
    Ddg take();

  private:
    OpId binary(Opcode opc, OpId a, OpId b);
    OpId unary(Opcode opc, OpId a);

    Ddg ddg_;
    LatencyModel lat_;
};

/** @name The kernel collection */
/// @{
Loop kernelDaxpy();
Loop kernelDotProduct();
Loop kernelFir8();
Loop kernelIir2();
Loop kernelStencil3();
Loop kernelMatVecInner();
Loop kernelHorner();
Loop kernelComplexMultiply();
Loop kernelLivermoreHydro();
Loop kernelTridiagSolve();
Loop kernelPrefixSum();
Loop kernelVectorNorm();
Loop kernelColorConvert();
Loop kernelAutocorrelation();
Loop kernelFftButterfly();
Loop kernelMixedLongLatency();
/// @}

/** Every named kernel. */
std::vector<Loop> namedKernels();

} // namespace dms

#endif // DMS_WORKLOAD_KERNELS_H
