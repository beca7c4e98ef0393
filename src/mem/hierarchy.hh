/**
 * @file
 * A trace-driven coherent two-level cache hierarchy: per-core private L1
 * caches kept coherent with MESI over an inclusive shared LLC that embeds
 * a full-map directory in its tags.
 *
 * This is the substrate the characterization study runs on: it shapes the
 * LLC reference stream exactly the way a real CMP would (private-cache
 * filtering, upgrade traffic, interventions, back-invalidations), and can
 * capture that stream for offline replay by the policy experiments.
 */

#ifndef CASIM_MEM_HIERARCHY_HH
#define CASIM_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "trace/trace.hh"

namespace casim {

/** Configuration of the simulated CMP memory system. */
struct HierarchyConfig
{
    /** Number of cores, each with a private L1. */
    unsigned numCores = 8;

    /** Private L1 geometry (per core). */
    CacheGeometry l1{32 * 1024, 8, kBlockBytes};

    /** Shared LLC geometry. */
    CacheGeometry llc{4 * 1024 * 1024, 16, kBlockBytes};

    /** L1 hit latency in cycles (timing accounting only). */
    Tick l1Latency = 4;

    /** Additional LLC hit latency in cycles. */
    Tick llcLatency = 34;

    /** Fixed memory latency in cycles (when the DRAM model is off). */
    Tick memLatency = 200;

    /** Use the open-page DRAM model instead of the fixed latency. */
    bool useDramModel = true;

    /** DRAM model parameters. */
    DramConfig dram;
};

/**
 * The coherent CMP memory hierarchy.
 */
class Hierarchy
{
  public:
    /**
     * @param config      CMP parameters.
     * @param llc_policy  Factory for the LLC replacement policy.
     *                    L1s always use true LRU.
     */
    Hierarchy(const HierarchyConfig &config,
              const ReplPolicyFactory &llc_policy);

    // The victim handlers bound at construction capture `this`, so a
    // Hierarchy can be neither copied nor moved.
    Hierarchy(const Hierarchy &) = delete;
    Hierarchy &operator=(const Hierarchy &) = delete;
    Hierarchy(Hierarchy &&) = delete;
    Hierarchy &operator=(Hierarchy &&) = delete;

    /** Attach an observer to LLC residency events (sharing study). */
    void setLlcObserver(CacheObserver *observer);

    /**
     * Capture every demand reference that reaches the LLC (misses from
     * L1s plus S->M upgrades) into `out`; pass nullptr to stop.
     */
    void setCaptureTrace(Trace *out) { capture_ = out; }

    /** Simulate one demand reference from its issuing core. */
    void access(const MemAccess &access);

    /** Simulate a whole trace in order. */
    void run(const Trace &trace);

    /**
     * Finish the simulation: flush LLC residencies so the observer sees
     * every block's final accounting.
     */
    void finish();

    /** The shared LLC. */
    Cache &llc() { return *llc_; }
    const Cache &llc() const { return *llc_; }

    /** Core c's private L1. */
    Cache &l1(unsigned core) { return *l1s_.at(core); }
    const Cache &l1(unsigned core) const { return *l1s_.at(core); }

    /** Configuration in effect. */
    const HierarchyConfig &config() const { return config_; }

    /** Demand references simulated so far. */
    std::uint64_t accesses() const { return accesses_.value(); }

    /** Position counter of the LLC reference stream. */
    SeqNo llcSeq() const { return llcSeq_; }

    /** Approximate total access cycles (simple timing model). */
    Tick cycles() const { return cycles_; }

    /** The DRAM model (valid only when config().useDramModel). */
    DramModel &dram() { return *dram_; }
    const DramModel &dram() const { return *dram_; }

    /** Hierarchy-level statistics (coherence events, timing). */
    stats::StatGroup &stats() { return stats_; }
    const stats::StatGroup &stats() const { return stats_; }

  private:
    /** Handle a reference that missed (or needs an upgrade) in L1. */
    void accessLlc(const MemAccess &access, bool is_upgrade);

    /** Invalidate every other core's L1 copy of an LLC-resident block. */
    void invalidateOtherSharers(CacheBlock &llc_block, CoreId keep);

    /**
     * Downgrade a remote M/E copy to S before a read by another core;
     * pulls dirty data into the LLC.
     */
    void downgradeOwner(CacheBlock &llc_block, CoreId requester);

    /** Victim handler for LLC fills: enforce inclusion. */
    void handleLlcVictim(const CacheBlock &victim);

    /** Victim handler for L1 fills: write back and update directory. */
    void handleL1Victim(CoreId core, const CacheBlock &victim);

    HierarchyConfig config_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Cache> llc_;

    /**
     * Fill victim handlers, built once here rather than as a
     * std::function temporary per fill: LLC fills enforce inclusion,
     * and l1Victims_[c] writes back core c's L1 victims.
     */
    Cache::VictimHandler llcVictim_;
    std::vector<Cache::VictimHandler> l1Victims_;
    std::unique_ptr<DramModel> dram_;
    Trace *capture_ = nullptr;
    SeqNo globalSeq_ = 0;
    SeqNo llcSeq_ = 0;
    Tick cycles_ = 0;

    stats::StatGroup stats_;
    stats::Counter &accesses_;
    stats::Counter &upgrades_;
    stats::Counter &interventions_;
    stats::Counter &backInvals_;
    stats::Counter &invalidationsSent_;
    stats::Counter &memReads_;
    stats::Counter &memWritebacks_;
    stats::Counter &l1Writebacks_;
};

} // namespace casim

#endif // CASIM_MEM_HIERARCHY_HH
