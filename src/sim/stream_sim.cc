/**
 * @file
 * Implementation of the LLC stream replayer.
 *
 * The replay loop resolves one access at a time in stream order; the
 * observer callbacks and sequence numbers it produces are the contract
 * every policy, labeler and scorer relies on.  The cache starts
 * without its residency payload and run() allocates it only when an
 * attached hook can see a block, so a miss-count replay runs on the
 * tag store alone.
 */

#include "sim/stream_sim.hh"

#include "common/logging.hh"
#include "trace/mmap_file.hh"

namespace casim {

StreamSim::StreamSim(const Trace &stream, const CacheGeometry &geo,
                     std::unique_ptr<ReplPolicy> policy, CacheShard shard)
    : stream_(stream),
      cache_(std::make_unique<Cache>("llc", geo, std::move(policy),
                                     shard, /*payload=*/false))
{
}

void
StreamSim::run()
{
    casim_assert(!ran_, "StreamSim::run() called twice");
    ran_ = true;
    const std::size_t n = stream_.size();
    casim_assert(positions_ == nullptr || positions_->size() == n,
                 "stream position remap does not cover the stream");
    // Every observer callback this class implements is a pure forward
    // to a training labeler or the chained observer; with neither
    // attached the cache stays unobserved and skips the virtual
    // dispatch per access.  A labeler that does not train (the oracle)
    // only labels fills, which needs no block.  The scorer reads
    // victim blocks and prefetch fills flag theirs, so any of these
    // hooks needs the payload; with none, the replay only reads
    // counters and the payload is never allocated.
    const bool observed =
        (labeler_ != nullptr && labeler_->wantsTraining()) ||
        chained_ != nullptr;
    if (observed || scorer_ != nullptr || prefetcher_ != nullptr)
        cache_->allocatePayload();
    cache_->setObserver(observed ? this : nullptr);
    // One handler for the whole run (it reads the position from now_)
    // instead of a std::function construction per fill.
    if (scorer_ != nullptr)
        onEvict_ = [this](const CacheBlock &, unsigned set,
                          unsigned way) {
            scorer_->onEviction(*cache_, set, way, now_);
        };

    // A mapped stream is consumed strictly forward, so a page cursor
    // advises the kernel epoch by epoch and retires fully replayed
    // epochs — replay never needs more than O(epoch) resident trace
    // pages.  Pure paging hints: results are unchanged.
    PageCursor cursor(stream_.pager(), /*retire=*/true);
    for (std::size_t i = 0; i < n; ++i) {
        cursor.touch(i);
        step(i);
    }
    cache_->flushResidencies();
}

void
StreamSim::step(std::size_t i)
{
    const SeqNo position =
        positions_ != nullptr ? (*positions_)[i] : static_cast<SeqNo>(i);
    now_ = position;
    const MemAccess &access = stream_[i];
    ReplContext ctx{access.blockAddr(), access.pc, access.core,
                    access.isWrite, position, false};
    const Cache::Lookup lookup = cache_->access(ctx);
    if (lookup.hit) {
        // Only prefetch fills set the flag, so without a prefetcher
        // there is nothing to read (nor a block to read it from).
        if (prefetcher_ != nullptr && lookup.block->prefetched) {
            lookup.block->prefetched = false;
            prefetcher_->recordUseful();
        }
    } else {
        if (labeler_ != nullptr)
            ctx.predictedShared = labeler_->predictShared(ctx);
        cache_->fill(ctx, onEvict_);
    }
    if (prefetcher_ != nullptr)
        runPrefetcher(access, position);
}

void
StreamSim::runPrefetcher(const MemAccess &access, SeqNo position)
{
    prefetchQueue_.clear();
    prefetcher_->observe(access.pc, access.blockAddr(),
                         prefetchQueue_);
    // Deduplicate within the burst, keeping the first occurrence: a
    // repeated target would otherwise fill twice whenever the first
    // fill's block was evicted by a later fill of the same burst
    // (possible in any set narrower than the burst), churning
    // residencies that were never demanded.  Bursts are at most a
    // handful of targets, so the quadratic scan is free.
    std::size_t unique = 0;
    for (std::size_t i = 0; i < prefetchQueue_.size(); ++i) {
        bool seen = false;
        for (std::size_t j = 0; j < unique && !seen; ++j)
            seen = prefetchQueue_[j] == prefetchQueue_[i];
        if (!seen)
            prefetchQueue_[unique++] = prefetchQueue_[i];
    }
    prefetchQueue_.resize(unique);
    for (const Addr target : prefetchQueue_) {
        if (cache_->probe(target) != nullptr)
            continue;
        // Prefetch fills carry the triggering reference's core/PC and
        // consult the labeler, but bypass demand accounting.  Their
        // evictions go through the same scoring handler as demand
        // fills: a prefetch-induced eviction is just as much a
        // replacement decision as a demand-induced one.
        ReplContext ctx{target, access.pc, access.core, false,
                        position, false};
        if (labeler_ != nullptr)
            ctx.predictedShared = labeler_->predictShared(ctx);
        cache_->fill(ctx, onEvict_)->prefetched = true;
    }
}

double
StreamSim::missRatio() const
{
    const std::uint64_t total = cache_->demandAccesses();
    if (total == 0)
        return 0.0;
    return static_cast<double>(cache_->demandMisses()) /
           static_cast<double>(total);
}

void
StreamSim::onHit(const CacheBlock &block, const ReplContext &ctx)
{
    if (chained_ != nullptr)
        chained_->onHit(block, ctx);
}

void
StreamSim::onMiss(const ReplContext &ctx)
{
    if (chained_ != nullptr)
        chained_->onMiss(ctx);
}

void
StreamSim::onFill(const CacheBlock &block, const ReplContext &ctx)
{
    if (chained_ != nullptr)
        chained_->onFill(block, ctx);
}

void
StreamSim::onResidencyEnd(const CacheBlock &block)
{
    if (labeler_ != nullptr)
        labeler_->train(block);
    if (chained_ != nullptr)
        chained_->onResidencyEnd(block);
}

} // namespace casim
