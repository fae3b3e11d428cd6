// Strided-run iteration shared by the broadcast binary ops, transpose and
// reduce_mean. Each kernel walks one tensor in row-major order (the output
// for binary ops and transpose, the input for reduce_mean); the loop nest
// over that index space carries, per other operand, the element stride of
// each dim (0 where the operand is broadcast or reduced). `collapse` drops
// size-1 dims and merges adjacent dims that stay contiguous for every
// operand; `for_each_run` then advances the odometer once per innermost run
// and hands the kernel the operands' offsets, so the innermost loop is a
// plain pointer loop the compiler can specialize and vectorize.
//
// Internal to src/tensor/.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ramiel::strided {

/// A collapsed loop nest, outermost dim first. `strides[d][k]` is operand
/// k's element stride along dim d. Rank 0 is one run of length 1.
template <std::size_t N>
struct Loop {
  using Offsets = std::array<std::int64_t, N>;

  std::vector<std::int64_t> dims;
  std::vector<Offsets> strides;

  /// Length of the innermost run.
  std::int64_t run() const { return dims.empty() ? 1 : dims.back(); }
  /// Operand strides along the innermost run.
  Offsets run_strides() const {
    return strides.empty() ? Offsets{} : strides.back();
  }
};

/// Builds the collapsed loop for `dims`, outermost first in the order the
/// caller walks them, with per-dim operand strides. Size-1 dims are dropped; dim d merges into
/// dim d+1 when, for every operand, stride[d] == stride[d+1] * dims[d+1].
/// That covers contiguous pairs and pairs broadcast (stride 0) together.
template <std::size_t N>
Loop<N> collapse(const std::vector<std::int64_t>& dims,
                 const std::vector<std::array<std::int64_t, N>>& strides) {
  Loop<N> out;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    if (dims[d] == 1) continue;
    if (!out.dims.empty()) {
      // Merge the previously kept (outer) dim with this inner one.
      bool mergeable = true;
      for (std::size_t k = 0; k < N; ++k) {
        mergeable = mergeable &&
                    out.strides.back()[k] == strides[d][k] * dims[d];
      }
      if (mergeable) {
        out.dims.back() *= dims[d];
        out.strides.back() = strides[d];
        continue;
      }
    }
    out.dims.push_back(dims[d]);
    out.strides.push_back(strides[d]);
  }
  return out;
}

/// Calls `body(offsets)` once per innermost run, in row-major order of the
/// loop, with each operand's element offset at the start of the run. An
/// empty index space (any zero extent) calls nothing.
template <std::size_t N, typename Body>
void for_each_run(const Loop<N>& loop, Body body) {
  for (std::int64_t d : loop.dims) {
    if (d == 0) return;
  }
  typename Loop<N>::Offsets off{};
  const int outer = static_cast<int>(loop.dims.size()) - 1;
  std::vector<std::int64_t> idx(
      outer > 0 ? static_cast<std::size_t>(outer) : 0, 0);
  for (;;) {
    body(off);
    int d = outer - 1;
    for (; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      for (std::size_t k = 0; k < N; ++k) off[k] += loop.strides[ud][k];
      if (++idx[ud] < loop.dims[ud]) break;
      for (std::size_t k = 0; k < N; ++k) {
        off[k] -= loop.strides[ud][k] * loop.dims[ud];
      }
      idx[ud] = 0;
    }
    if (d < 0) return;
  }
}

}  // namespace ramiel::strided
