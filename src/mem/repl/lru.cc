/**
 * @file
 * Implementation of true-LRU replacement.
 */

#include "mem/repl/lru.hh"

#include <limits>

#include "common/logging.hh"
#include "common/simd.hh"

namespace casim {

LruPolicy::LruPolicy(unsigned num_sets, unsigned num_ways)
    : ReplPolicy(num_sets, num_ways),
      stamp_(static_cast<std::size_t>(num_sets) * num_ways, 0),
      simdVictim_(simd::vectorTagScanEnabled() &&
                  num_ways % simd::kTagLanes == 0 && num_ways >= 4)
{
}

unsigned
LruPolicy::victim(unsigned set, const ReplContext &ctx,
                  std::uint64_t exclude)
{
    (void)ctx;
    // A vector-friendly width is a pure argmin over the set's stamp
    // row and takes the branchless SIMD kernel, masked when the caller
    // (the sharing-aware wrapper) excludes ways.  Either path selects
    // the same way: strict less-than with earliest-index tie-break.
    // Excluded lanes read as UINT64_MAX, which no stamp reaches, so
    // the masked kernel agrees with the scalar loop whenever one way
    // is left; a fully excluded set falls through to its assert.
    if (simdVictim_) {
        const std::uint64_t *row = &stamp_[flat(set, 0)];
        if (exclude == 0) {
            const unsigned best = simd::argminU64Vector(row, numWays());
#ifdef CASIM_PARANOID
            casim_assert(best == simd::argminU64Scalar(row, numWays()),
                         "SIMD stamp argmin disagrees with the scalar "
                         "scan");
#endif
            return best;
        }
        const std::uint64_t all =
            numWays() >= 64 ? ~0ULL : ((1ULL << numWays()) - 1);
        if ((exclude & all) != all) {
            const unsigned best =
                simd::argminU64Masked(row, numWays(), exclude);
#ifdef CASIM_PARANOID
            casim_assert(best == simd::argminU64MaskedScalar(
                                     row, numWays(), exclude),
                         "SIMD masked stamp argmin disagrees with the "
                         "scalar scan");
#endif
            return best;
        }
    }
    unsigned best = numWays();
    std::uint64_t best_stamp = std::numeric_limits<std::uint64_t>::max();
    for (unsigned way = 0; way < numWays(); ++way) {
        if (exclude & (1ULL << way))
            continue;
        if (stamp_[flat(set, way)] < best_stamp) {
            best_stamp = stamp_[flat(set, way)];
            best = way;
        }
    }
    casim_assert(best != numWays(), "all ways excluded in LRU victim");
    return best;
}

void
LruPolicy::onFill(unsigned set, unsigned way, const ReplContext &ctx)
{
    (void)ctx;
    stamp_[flat(set, way)] = ++clock_;
}

void
LruPolicy::onHit(unsigned set, unsigned way, const ReplContext &ctx)
{
    (void)ctx;
    stamp_[flat(set, way)] = ++clock_;
}

void
LruPolicy::onInvalidate(unsigned set, unsigned way)
{
    stamp_[flat(set, way)] = 0;
}

unsigned
LruPolicy::stackDepth(unsigned set, unsigned way) const
{
    unsigned depth = 0;
    const std::uint64_t mine = stamp_[flat(set, way)];
    for (unsigned other = 0; other < numWays(); ++other) {
        if (other != way && stamp_[flat(set, other)] > mine)
            ++depth;
    }
    return depth;
}

} // namespace casim
