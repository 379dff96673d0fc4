#include "workload/kernels.h"

#include "ir/verify.h"
#include "support/diag.h"

namespace dms {

LoopBuilder::LoopBuilder(LatencyModel lat) : lat_(lat) {}

OpId
LoopBuilder::load(int stream, int offset)
{
    OpId id = ddg_.addOp(Opcode::Load);
    ddg_.op(id).memStream = stream;
    ddg_.op(id).memOffset = offset;
    return id;
}

OpId
LoopBuilder::constant(std::int64_t v)
{
    OpId id = ddg_.addOp(Opcode::Const);
    ddg_.op(id).literal = v;
    return id;
}

OpId
LoopBuilder::binary(Opcode opc, OpId a, OpId b)
{
    OpId id = ddg_.addOp(opc);
    flow(a, id, 0, 0);
    flow(b, id, 1, 0);
    return id;
}

OpId
LoopBuilder::unary(Opcode opc, OpId a)
{
    OpId id = ddg_.addOp(opc);
    flow(a, id, 0, 0);
    return id;
}

OpId LoopBuilder::add(OpId a, OpId b) { return binary(Opcode::Add, a, b); }
OpId LoopBuilder::sub(OpId a, OpId b) { return binary(Opcode::Sub, a, b); }
OpId LoopBuilder::mul(OpId a, OpId b) { return binary(Opcode::Mul, a, b); }
OpId LoopBuilder::div(OpId a, OpId b) { return binary(Opcode::Div, a, b); }

OpId LoopBuilder::add1(OpId a) { return unary(Opcode::Add, a); }
OpId LoopBuilder::sub1(OpId a) { return unary(Opcode::Sub, a); }
OpId LoopBuilder::mul1(OpId a) { return unary(Opcode::Mul, a); }

OpId
LoopBuilder::store(int stream, OpId value, int offset)
{
    OpId id = ddg_.addOp(Opcode::Store);
    ddg_.op(id).memStream = stream;
    ddg_.op(id).memOffset = offset;
    flow(value, id, 0, 0);
    return id;
}

EdgeId
LoopBuilder::flow(OpId src, OpId dst, int slot, int distance)
{
    return ddg_.addEdge(src, dst, DepKind::Flow, distance,
                        lat_.of(ddg_.op(src).opc), slot);
}

EdgeId
LoopBuilder::memDep(OpId src, OpId dst, int distance, int latency)
{
    return ddg_.addEdge(src, dst, DepKind::Memory, distance, latency);
}

EdgeId
LoopBuilder::antiDep(OpId src, OpId dst, int distance)
{
    return ddg_.addEdge(src, dst, DepKind::Anti, distance, 0);
}

Ddg
LoopBuilder::take()
{
    checkDdg(ddg_);
    return std::move(ddg_);
}

namespace {

Loop
finish(const char *name, LoopBuilder &b, long trip)
{
    Loop loop;
    loop.name = name;
    loop.ddg = b.take();
    loop.tripCount = trip;
    return loop;
}

} // namespace

// y[i] = a * x[i] + y[i]
Loop
kernelDaxpy()
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId y = b.load(1);
    OpId ax = b.mul1(x);       // a is loop-invariant
    OpId s = b.add(ax, y);
    b.store(1, s);
    return finish("daxpy", b, 400);
}

// acc += x[i] * y[i]
Loop
kernelDotProduct()
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId y = b.load(1);
    OpId p = b.mul(x, y);
    OpId acc = b.add1(p);
    b.flow(acc, acc, 1, 1);    // accumulator recurrence
    b.store(2, acc);
    return finish("dot_product", b, 500);
}

// y[i] = sum_k c[k] * x[i+k], 8 taps, coefficients invariant
Loop
kernelFir8()
{
    LoopBuilder b;
    std::vector<OpId> prods;
    for (int k = 0; k < 8; ++k) {
        OpId x = b.load(0, k);
        prods.push_back(b.mul1(x));
    }
    // Adder tree.
    while (prods.size() > 1) {
        std::vector<OpId> next;
        for (size_t i = 0; i + 1 < prods.size(); i += 2)
            next.push_back(b.add(prods[i], prods[i + 1]));
        if (prods.size() % 2)
            next.push_back(prods.back());
        prods = std::move(next);
    }
    b.store(1, prods[0]);
    return finish("fir8", b, 300);
}

// y[i] = b0*x[i] + a1*y[i-1] + a2*y[i-2]. The feedback taps are
// muls whose slot-1 operand is the loop-carried y value.
Loop
kernelIir2()
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId t0 = b.mul1(x);       // b0 * x[i]
    OpId f1 = b.mul1(t0);      // a1 * y[i-1] (slot1 = back-edge)
    OpId f2 = b.mul1(t0);      // a2 * y[i-2]
    OpId s1 = b.add(t0, f1);
    OpId y = b.add(s1, f2);
    b.flow(y, f1, 1, 1);
    b.flow(y, f2, 1, 2);
    b.store(1, y);
    return finish("iir2", b, 350);
}

// y[i] = c * (x[i-1] + x[i] + x[i+1]) with one rotating load:
// a single load feeds uses at distances 0, 1 and 2 (fan-out 3,
// exercising the single-use pre-pass across distances).
Loop
kernelStencil3()
{
    LoopBuilder b;
    OpId x = b.load(0, 1);      // x[i+1]
    OpId s01 = b.add1(x);       // x[i+1] + ...
    b.flow(x, s01, 1, 1);       // ... x[i] (previous load)
    OpId s012 = b.add1(s01);
    b.flow(x, s012, 1, 2);      // ... x[i-1]
    OpId y = b.mul1(s012);      // * c
    b.store(1, y);
    return finish("stencil3", b, 400);
}

// acc += a[row][i] * v[i] (same shape as dot, different mix)
Loop
kernelMatVecInner()
{
    LoopBuilder b;
    OpId a = b.load(0);
    OpId v = b.load(1);
    OpId a2 = b.load(2);
    OpId v2 = b.load(3);
    OpId p1 = b.mul(a, v);
    OpId p2 = b.mul(a2, v2);
    OpId s = b.add(p1, p2);
    OpId acc = b.add1(s);
    b.flow(acc, acc, 1, 1);
    b.store(4, acc);
    return finish("matvec_inner", b, 250);
}

// acc = acc * c[i] + c[i] — Horner-style multiply-accumulate
// recurrence: the mul's slot 1 is the previous accumulator.
Loop
kernelHorner()
{
    LoopBuilder b;
    OpId c = b.load(0);
    OpId m = b.mul1(c);        // c[i] * acc[i-1]
    OpId acc = b.add(m, c);
    b.flow(acc, m, 1, 1);
    b.store(1, acc);
    return finish("horner", b, 300);
}

// (ar + i*ai) * (br + i*bi): 4 loads, 4 muls, add+sub, 2 stores
Loop
kernelComplexMultiply()
{
    LoopBuilder b;
    OpId ar = b.load(0);
    OpId ai = b.load(1);
    OpId br = b.load(2);
    OpId bi = b.load(3);
    OpId rr = b.mul(ar, br);
    OpId ii = b.mul(ai, bi);
    OpId ri = b.mul(ar, bi);
    OpId ir = b.mul(ai, br);
    OpId re = b.sub(rr, ii);
    OpId im = b.add(ri, ir);
    b.store(4, re);
    b.store(5, im);
    return finish("complex_multiply", b, 256);
}

// Livermore loop 1 (hydro): x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])
Loop
kernelLivermoreHydro()
{
    LoopBuilder b;
    OpId y = b.load(0);
    OpId z10 = b.load(1, 10);
    OpId z11 = b.load(1, 11);
    OpId rz = b.mul1(z10);
    OpId tz = b.mul1(z11);
    OpId s = b.add(rz, tz);
    OpId ys = b.mul(y, s);
    OpId x = b.add1(ys);       // + q
    b.store(2, x);
    return finish("livermore_hydro", b, 400);
}

// Livermore loop 5 (tri-diagonal): x[i] = z[i] * (y[i] - x[i-1])
Loop
kernelTridiagSolve()
{
    LoopBuilder b;
    OpId z = b.load(0);
    OpId y = b.load(1);
    OpId d = b.sub1(y);        // y[i] - x[i-1] (slot1 = back-edge)
    OpId x = b.mul(z, d);
    b.flow(x, d, 1, 1);
    b.store(2, x);
    return finish("tridiag_solve", b, 200);
}

// s[i] = s[i-1] + a[i]
Loop
kernelPrefixSum()
{
    LoopBuilder b;
    OpId a = b.load(0);
    OpId s = b.add1(a);
    b.flow(s, s, 1, 1);
    b.store(1, s);
    // The stored prefix also aliases the next load in real codes;
    // model the memory ordering.
    return finish("prefix_sum", b, 500);
}

// acc += x[i] * x[i]: one load with fan-out 2 into both mul slots
Loop
kernelVectorNorm()
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId sq = b.mul1(x);
    b.flow(x, sq, 1, 0);
    OpId acc = b.add1(sq);
    b.flow(acc, acc, 1, 1);
    b.store(1, acc);
    return finish("vector_norm", b, 450);
}

// 3x3 color-space conversion: 3 loads, 9 muls, 6 adds, 3 stores
Loop
kernelColorConvert()
{
    LoopBuilder b;
    OpId r = b.load(0);
    OpId g = b.load(1);
    OpId bl = b.load(2);
    for (int row = 0; row < 3; ++row) {
        OpId mr = b.mul1(r);
        OpId mg = b.mul1(g);
        OpId mb = b.mul1(bl);
        OpId s1 = b.add(mr, mg);
        OpId s2 = b.add(s1, mb);
        b.store(3 + row, s2);
    }
    return finish("color_convert", b, 640);
}

// Two accumulators over shifted products (autocorrelation lags)
Loop
kernelAutocorrelation()
{
    LoopBuilder b;
    OpId x0 = b.load(0, 0);
    OpId x1 = b.load(0, 1);
    OpId x2 = b.load(0, 2);
    OpId p0 = b.mul(x0, x1);
    OpId p1 = b.mul(x0, x2);
    OpId acc0 = b.add1(p0);
    b.flow(acc0, acc0, 1, 1);
    OpId acc1 = b.add1(p1);
    b.flow(acc1, acc1, 1, 1);
    b.store(1, acc0);
    b.store(2, acc1);
    return finish("autocorrelation", b, 380);
}

// Radix-2 FFT butterfly with invariant twiddle factors
Loop
kernelFftButterfly()
{
    LoopBuilder b;
    OpId ar = b.load(0);
    OpId ai = b.load(1);
    OpId br = b.load(2);
    OpId bi = b.load(3);
    OpId tr = b.sub(b.mul1(br), b.mul1(bi)); // w * b (real)
    OpId ti = b.add(b.mul1(br), b.mul1(bi)); // w * b (imag)
    b.store(4, b.add(ar, tr));
    b.store(5, b.add(ai, ti));
    b.store(6, b.sub(ar, tr));
    b.store(7, b.sub(ai, ti));
    return finish("fft_butterfly", b, 256);
}

// Division in a recurrence: long-latency cycle (RecMII stressor)
Loop
kernelMixedLongLatency()
{
    LoopBuilder b;
    OpId a = b.load(0);
    OpId d = b.sub1(a);        // a[i] - v[i-2] (slot1 = back-edge)
    OpId v = b.div(a, d);
    b.flow(v, d, 1, 2);
    b.store(1, v);
    return finish("mixed_long_latency", b, 150);
}

std::vector<Loop>
namedKernels()
{
    std::vector<Loop> out;
    out.push_back(kernelDaxpy());
    out.push_back(kernelDotProduct());
    out.push_back(kernelFir8());
    out.push_back(kernelIir2());
    out.push_back(kernelStencil3());
    out.push_back(kernelMatVecInner());
    out.push_back(kernelHorner());
    out.push_back(kernelComplexMultiply());
    out.push_back(kernelLivermoreHydro());
    out.push_back(kernelTridiagSolve());
    out.push_back(kernelPrefixSum());
    out.push_back(kernelVectorNorm());
    out.push_back(kernelColorConvert());
    out.push_back(kernelAutocorrelation());
    out.push_back(kernelFftButterfly());
    out.push_back(kernelMixedLongLatency());
    return out;
}

} // namespace dms
