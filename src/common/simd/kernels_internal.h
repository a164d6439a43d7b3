// Internal backend entry points shared between kernels.cc (dispatch) and
// kernels_avx2.cc (the intrinsics translation unit, compiled only with
// DIACA_AVX2=ON — see CMakeLists.txt). Not part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd/kernels.h"

namespace diaca::simd::avx2 {

double MaxPlusReduce(const double* row, const double* far, std::size_t n,
                     double base);
void MaxAccumulatePlus(double* acc, const double* row, double add,
                       std::size_t n);
void MinPlusAccumulate(double* acc, const double* row, double add,
                       std::size_t n);
double MinPlusReduce(const double* a, const double* b, std::size_t n);
ArgResult ArgMinFirst(const double* v, std::size_t n);
ArgResult ArgMinPlusFirst(const double* a, const double* b, std::size_t n);
ArgResult ArgMaxPlusFirst(const double* row, const double* far, std::size_t n,
                          double base);
double DotProduct(const double* a, const double* b, std::size_t n);
void MinPlusTileUpdate(double* c, std::size_t c_stride, const double* a,
                       std::size_t a_stride, const double* b,
                       std::size_t b_stride, std::size_t rows,
                       std::size_t cols, std::size_t depth);
void BroadcastAdd(double* out, const double* row, double add, std::size_t n);
void GatherPlus(double* out, const double* col, const std::int32_t* rows,
                const double* access, const std::int32_t* ids, std::size_t n);

}  // namespace diaca::simd::avx2
