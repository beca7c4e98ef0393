/**
 * @file
 * Stream replayer: drives a captured LLC reference stream through a
 * standalone LLC under any replacement policy, with optional fill-time
 * labeling (oracle/predictor), sharing tracking, and eviction-time
 * awareness scoring.  This is where OPT and the oracle experiments run,
 * all policies seeing the identical reference stream.
 */

#ifndef CASIM_SIM_STREAM_SIM_HH
#define CASIM_SIM_STREAM_SIM_HH

#include <memory>

#include "core/awareness.hh"
#include "core/oracle.hh"
#include "mem/cache.hh"
#include "mem/prefetcher.hh"
#include "trace/trace.hh"

namespace casim {

/**
 * Replays an LLC reference stream through one cache.
 *
 * run() allocates the cache's residency payload (see Cache) only when
 * a training labeler (FillLabeler::wantsTraining), observer, awareness
 * scorer or prefetcher is attached; with none the replay runs on the
 * tag store alone and only the counters are meaningful.
 */
class StreamSim : public CacheObserver
{
  public:
    /**
     * @param stream The captured LLC reference stream.
     * @param geo    LLC geometry (shard-local when `shard` is set).
     * @param policy Replacement policy sized for `geo`.
     * @param shard  Set shard the cache implements; defaults to the
     *               full set range (see CacheShard).
     */
    StreamSim(const Trace &stream, const CacheGeometry &geo,
              std::unique_ptr<ReplPolicy> policy, CacheShard shard = {});

    /** Attach a fill-time labeler (oracle or predictor); may be null. */
    void setLabeler(FillLabeler *labeler) { labeler_ = labeler; }

    /** Forward residency events to an additional observer. */
    void setObserver(CacheObserver *observer) { chained_ = observer; }

    /** Attach an eviction-time awareness scorer; may be null. */
    void
    setAwarenessScorer(AwarenessScorer *scorer)
    {
        scorer_ = scorer;
    }

    /**
     * Attach an LLC prefetcher; may be null.  Prefetch fills consult
     * the labeler like demand fills but are not counted as demand
     * accesses.  Incompatible with OPT replacement, whose per-fill
     * next-use lookup assumes demand fills only.
     */
    void setPrefetcher(Prefetcher *prefetcher)
    {
        prefetcher_ = prefetcher;
    }

    /**
     * Replay `stream_[i]` at sequence number `(*positions)[i]` instead
     * of `i`.  The sharded replay engine feeds each shard a substream
     * of the original capture, but OPT's next-use lookups, fillSeq
     * instrumentation and oracle label planes are all keyed by GLOBAL
     * stream position — this hook preserves those keys.  `positions`
     * must outlive the run, hold exactly stream.size() entries, and be
     * strictly increasing (substreams preserve stream order).
     */
    void
    setStreamPositions(const std::vector<SeqNo> *positions)
    {
        positions_ = positions;
    }

    /** Replay the whole stream and flush residencies. */
    void run();

    /**
     * The simulated LLC.  Its blocks (blockAt, probe) exist only if
     * run() found a hook that needed them.
     */
    Cache &cache() { return *cache_; }
    const Cache &cache() const { return *cache_; }

    /** Demand hits observed. */
    std::uint64_t hits() const { return cache_->demandHits(); }

    /** Demand misses observed. */
    std::uint64_t misses() const { return cache_->demandMisses(); }

    /** Miss ratio over the replayed stream (0 if empty). */
    double missRatio() const;

    // CacheObserver interface (internal chaining).
    void onHit(const CacheBlock &block, const ReplContext &ctx) override;
    void onMiss(const ReplContext &ctx) override;
    void onFill(const CacheBlock &block, const ReplContext &ctx) override;
    void onResidencyEnd(const CacheBlock &block) override;

  private:
    /** Issue the prefetches triggered by one demand reference. */
    void runPrefetcher(const MemAccess &access, SeqNo position);

    /** Resolve stream_[i] — the per-access body of the replay loop. */
    void step(std::size_t i);

    const Trace &stream_;
    std::unique_ptr<Cache> cache_;
    FillLabeler *labeler_ = nullptr;
    CacheObserver *chained_ = nullptr;
    AwarenessScorer *scorer_ = nullptr;
    Prefetcher *prefetcher_ = nullptr;
    const std::vector<SeqNo> *positions_ = nullptr;
    std::vector<Addr> prefetchQueue_;

    /**
     * Victim handler reporting evictions (at stream position now_) to
     * the attached awareness scorer; null when no scorer is attached.
     * Built once per run and shared by the demand and prefetch fill
     * paths so the scorer sees every replacement decision.
     */
    Cache::VictimHandler onEvict_;

    SeqNo now_ = 0;
    bool ran_ = false;
};

} // namespace casim

#endif // CASIM_SIM_STREAM_SIM_HH
