/**
 * @file
 * Branch prediction per Table 1: a combined bimodal(4k)/gshare(4k)
 * predictor with a 4k-entry selector, a 16-entry return address
 * stack, and a 1k-entry 4-way BTB.
 */

#ifndef HPA_BPRED_BPRED_HH
#define HPA_BPRED_BPRED_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/static_inst.hh"
#include "stats/stats.hh"

namespace hpa::bpred
{

/** Predictor geometry (defaults: Table 1). */
struct BPredConfig
{
    unsigned bimodal_entries = 4096;
    unsigned gshare_entries = 4096;
    unsigned selector_entries = 4096;
    unsigned history_bits = 12;
    unsigned btb_entries = 1024;
    unsigned btb_assoc = 4;
    unsigned ras_entries = 16;

    bool operator==(const BPredConfig &) const = default;
};

/** A table of 2-bit saturating counters. */
class TwoBitTable
{
  public:
    explicit TwoBitTable(unsigned entries, uint8_t init = 1)
        : table_(entries, init)
    {}

    bool taken(uint64_t idx) const { return table_[wrap(idx)] >= 2; }

    void
    update(uint64_t idx, bool taken)
    {
        uint8_t &c = table_[wrap(idx)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
    }

    unsigned size() const { return unsigned(table_.size()); }

  private:
    uint64_t wrap(uint64_t idx) const { return idx & (table_.size() - 1); }

    std::vector<uint8_t> table_;
};

/** 4-way set-associative branch target buffer with LRU. */
class Btb
{
  public:
    Btb(unsigned entries, unsigned assoc);

    std::optional<uint64_t> lookup(uint64_t pc) const;
    void update(uint64_t pc, uint64_t target);

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t target = 0;
        uint64_t lru = 0;
    };

    unsigned sets_;
    unsigned assoc_;
    std::vector<Entry> entries_;
    uint64_t clock_ = 0;
};

/** Circular return-address stack. */
class Ras
{
  public:
    explicit Ras(unsigned entries) : stack_(entries, 0) {}

    void push(uint64_t addr);
    uint64_t pop();
    bool empty() const { return count_ == 0; }

  private:
    std::vector<uint64_t> stack_;
    unsigned top_ = 0;
    unsigned count_ = 0;
};

/** Outcome of a fetch-time prediction. */
struct Prediction
{
    bool taken = false;
    /** Predicted target; valid only when targetKnown. */
    uint64_t target = 0;
    bool targetKnown = false;
};

/**
 * Facade combining direction predictor, BTB and RAS, with hit/miss
 * accounting. The core drives it from the committed-path trace:
 * predict() is side-effect-free except for the RAS (which is updated
 * speculatively at fetch, as in real front ends); resolve() trains
 * tables with the actual outcome.
 */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BPredConfig &config = {});

    /** Predict direction and target for a control instruction. */
    Prediction predict(uint64_t pc, const isa::StaticInst &si);

    /** Train with the actual outcome. */
    void resolve(uint64_t pc, const isa::StaticInst &si, bool taken,
                 uint64_t target);

    void regStats(stats::Registry &reg);

    stats::Counter lookups;
    stats::Counter dirMispredicts;
    stats::Counter targetMispredicts;

  private:
    BPredConfig cfg_;
    TwoBitTable bimodal_;
    TwoBitTable gshare_;
    TwoBitTable selector_;
    Btb btb_;
    Ras ras_;
    uint64_t history_ = 0;

    uint64_t gshareIndex(uint64_t pc) const;
};

} // namespace hpa::bpred

#endif // HPA_BPRED_BPRED_HH
