#include "histogram/wbmh_state.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/common.h"
#include "util/rounded_counter.h"

namespace tds {
namespace {

/// First cell in id-sorted `cells` whose id is >= `id`.
template <typename Cells>
auto LowerBound(Cells& cells, uint64_t id) {
  return std::lower_bound(
      cells.begin(), cells.end(), id,
      [](const auto& cell, uint64_t key) { return cell.id < key; });
}

/// RoundValue's per-round factor is (1 + 2^{1-bits}); the base width is
/// the smallest bits with factor <= 1 + count_epsilon (the level schedule
/// widens it from there). As a double: it is infinite, and no int, when
/// 2 / count_epsilon overflows or count_epsilon is infinite; otherwise it
/// is at most 1025.
double BaseWidth(double count_epsilon) {
  return std::ceil(std::log2(2.0 / count_epsilon));
}

/// ValidateCountEpsilon must have accepted `count_epsilon`.
int BaseMantissaBits(double count_epsilon) {
  if (!(count_epsilon > 0.0)) return 0;
  return std::max(2, static_cast<int>(BaseWidth(count_epsilon)));
}

}  // namespace

Status WbmhParams::ValidateCountEpsilon(double count_epsilon) {
  if (!std::isfinite(count_epsilon)) {
    return Status::InvalidArgument("WBMH count_epsilon must be finite");
  }
  if (count_epsilon > 0.0 && !std::isfinite(BaseWidth(count_epsilon))) {
    return Status::InvalidArgument(
        "WBMH count_epsilon is too small for a mantissa width");
  }
  return Status::OK();
}

WbmhParams::WbmhParams(WbmhLayout* layout, double count_epsilon)
    : layout(layout), count_epsilon(count_epsilon) {
  TDS_CHECK(layout != nullptr);
  TDS_CHECK_MSG(ValidateCountEpsilon(count_epsilon).ok(),
                "invalid WBMH count_epsilon");
  base_mantissa_bits = BaseMantissaBits(count_epsilon);
}

int WbmhParams::MantissaBitsForLevel(uint32_t level) const {
  if (base_mantissa_bits == 0) return 0;
  // beta_i = eps / i^2 schedule (paper Section 5, unknown-N variant):
  // 2 * log2(level) extra bits at merge level `level`.
  const uint32_t l = std::max<uint32_t>(level, 1);
  const int extra =
      2 * static_cast<int>(std::ceil(std::log2(static_cast<double>(l) + 1.0)));
  return base_mantissa_bits + extra;
}

void WbmhState::Sync(const WbmhParams& params) {
  TDS_CHECK_MSG(applied_seq_ >= params.layout->LogStart(),
                "layout op log was trimmed past this counter's position");
  applied_seq_ = ReplayOps(params, cells_, applied_seq_);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

uint64_t WbmhState::ReplayOps(const WbmhParams& params,
                              std::vector<Cell>& cells, uint64_t from) {
  const WbmhLayout& layout = *params.layout;
  const uint64_t latest = layout.OpSeq();
  for (uint64_t seq = from; seq < latest; ++seq) {
    const WbmhLayout::Op& op = layout.OpAt(seq);
    switch (op.kind) {
      case WbmhLayout::OpKind::kSeal:
        break;  // counts materialize lazily on first Update
      case WbmhLayout::OpKind::kMerge: {
        auto right = LowerBound(cells, op.b);
        if (right == cells.end() || right->id != op.b) break;
        const Cell absorbed = *right;
        // `a` is `b`'s older neighbor, so no cell lies between them: fold
        // into the predecessor if it is `a`'s, else `a` takes `b`'s place.
        if (right != cells.begin() && std::prev(right)->id == op.a) {
          right = std::prev(cells.erase(right));
        } else {
          *right = Cell{op.a};
        }
        Cell& left = *right;
        left.level = std::max(left.level, absorbed.level) + 1;
        left.count = RoundValue(left.count + absorbed.count,
                                params.MantissaBitsForLevel(left.level));
        break;
      }
      case WbmhLayout::OpKind::kDrop:
        // The dropped bucket is the layout's oldest.
        if (!cells.empty() && cells.front().id == op.a) {
          cells.erase(cells.begin());
        }
        break;
    }
  }
  return latest;
}

WbmhState::Cell& WbmhState::CellFor(uint64_t id) {
  // Arrivals land in the open (newest) bucket or close to it.
  if (cells_.empty() || cells_.back().id < id) {
    return cells_.emplace_back(Cell{id});
  }
  auto it = LowerBound(cells_, id);
  if (it->id != id) it = cells_.insert(it, Cell{id});
  return *it;
}

void WbmhState::Update(const WbmhParams& params, Tick t, uint64_t value) {
  params.layout->AdvanceTo(t);
  Sync(params);
  if (value == 0) return;
  const uint64_t bucket = params.layout->BucketForArrival(t);
  TDS_CHECK_MSG(bucket != 0, "arrival tick is before the oldest live bucket");
  // Arrivals add exactly (leaf accumulation); rounding happens once per
  // merge, one level of the paper's summation tree.
  CellFor(bucket).count += static_cast<double>(value);
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void WbmhState::UpdateBatch(const WbmhParams& params,
                            std::span<const StreamItem> items) {
  size_t i = 0;
  while (i < items.size()) {
    const Tick t = items[i].t;
    params.layout->AdvanceTo(t);
    Sync(params);
    Cell* cell = nullptr;
    for (; i < items.size() && items[i].t == t; ++i) {
      if (items[i].value == 0) continue;
      if (cell == nullptr) {
        const uint64_t bucket = params.layout->BucketForArrival(t);
        TDS_CHECK_MSG(bucket != 0,
                      "arrival tick is before the oldest live bucket");
        cell = &CellFor(bucket);
      }
      // Per item, not a pre-summed run: double addition is not
      // associative, and per-item Update adds one value at a time.
      cell->count += static_cast<double>(items[i].value);
    }
  }
  TDS_AUDIT_MUTATION(AuditInvariants(params));
}

void WbmhState::Advance(const WbmhParams& params, Tick now) {
  params.layout->AdvanceTo(now);
  Sync(params);
}

Status WbmhState::AuditInvariants(const WbmhParams& params) const {
  const WbmhLayout& layout = *params.layout;
  TDS_AUDIT_CHECK(applied_seq_ >= layout.LogStart(),
                  "layout op log was trimmed past this counter");
  TDS_AUDIT_CHECK(applied_seq_ <= layout.OpSeq(),
                  "counter is ahead of the layout's op sequence");
  uint64_t previous_id = 0;
  for (const Cell& cell : cells_) {
    TDS_AUDIT_CHECK(cell.id > previous_id,
                    "cell ids must be nonzero and strictly increasing");
    previous_id = cell.id;
    TDS_AUDIT_CHECK(std::isfinite(cell.count) && cell.count >= 0.0,
                    "count must be finite and nonnegative");
  }
  if (applied_seq_ == layout.OpSeq()) {
    // Both sides are in id order: one merge-join finds every live cell.
    auto cell = cells_.begin();
    for (const WbmhLayout::BucketSpan& span : layout.Spans()) {
      if (cell != cells_.end() && cell->id == span.id) ++cell;
    }
    TDS_AUDIT_CHECK(cell == cells_.end(),
                    "count held for a bucket the layout dropped");
  }
  return Status::OK();
}

double WbmhState::Query(const WbmhParams& params, Tick now) const {
  const WbmhLayout& layout = *params.layout;
  const DecayFunction& g = *layout.decay();
  const Tick horizon = g.Horizon();
  TDS_CHECK_GE(now, layout.now());
  // Behind the layout: replay the pending structural ops on a local copy of
  // the cells, re-rounding exactly as Sync() would, so the estimate does
  // not depend on when this counter last synced.
  std::vector<Cell> replayed;
  const std::vector<Cell>* cells = &cells_;
  if (applied_seq_ != layout.OpSeq()) {
    TDS_CHECK_MSG(applied_seq_ >= layout.LogStart(),
                  "layout op log was trimmed past this counter's position");
    replayed = cells_;
    (void)ReplayOps(params, replayed, applied_seq_);
    cells = &replayed;
  }
  // Buckets the (frozen) layout has not yet dropped may already be fully
  // past the horizon at `now`; they contribute nothing.
  double sum = 0.0;
  auto cell = cells->begin();
  for (const WbmhLayout::BucketSpan& span : layout.Spans()) {
    while (cell != cells->end() && cell->id < span.id) ++cell;
    if (cell == cells->end() || cell->id != span.id || cell->count == 0.0) {
      continue;
    }
    // All slots in a bucket carry weights within (1+eps); weight by the
    // newest slot (one-sided overestimate, matching the paper's analysis).
    const Tick age = std::max<Tick>(1, AgeAt(std::min(span.end, now), now));
    if (horizon != kInfiniteHorizon && age > horizon) continue;
    sum += cell->count * g.Weight(age);
  }
  return sum;
}

double WbmhState::RawTotal() const {
  double total = 0.0;
  for (const Cell& cell : cells_) total += cell.count;
  return total;
}

Status WbmhState::EncodeState(const WbmhParams& params,
                              Encoder& encoder) const {
  if (applied_seq_ != params.layout->OpSeq()) {
    return Status::FailedPrecondition("counter not synced before encoding");
  }
  encoder.PutDouble(params.count_epsilon);
  encoder.PutVarint(applied_seq_);
  encoder.PutVarint(cells_.size());
  for (const Cell& cell : cells_) {
    encoder.PutVarint(cell.id);
    encoder.PutDouble(cell.count);
    encoder.PutVarint(cell.level);
  }
  return Status::OK();
}

Status WbmhState::DecodeState(const WbmhParams& params, Decoder& decoder) {
  double count_epsilon = 0.0;
  uint64_t applied = 0, size = 0;
  if (!decoder.GetDouble(&count_epsilon) || !decoder.GetVarint(&applied) ||
      !decoder.GetVarint(&size)) {
    return CorruptSnapshot("WBMH counter header");
  }
  // Bitwise equality: a NaN never matches, and every key of a registry
  // rounds at the registry's one precision.
  if (!(count_epsilon == params.count_epsilon)) {
    return CorruptSnapshot("WBMH counter count_epsilon");
  }
  const WbmhLayout& layout = *params.layout;
  if (applied != layout.OpSeq() || applied < layout.LogStart()) {
    return Status::FailedPrecondition(
        "counter snapshot does not match the layout's op sequence");
  }
  applied_seq_ = applied;
  cells_.clear();
  for (uint64_t i = 0; i < size; ++i) {
    uint64_t id = 0, level = 0;
    double value = 0.0;
    if (!decoder.GetVarint(&id) || !decoder.GetDouble(&value) ||
        !decoder.GetVarint(&level)) {
      return CorruptSnapshot("WBMH counter cell");
    }
    // The cells are kept in id order; the encoder writes them that way.
    if (id <= (cells_.empty() ? 0 : cells_.back().id)) {
      return CorruptSnapshot("WBMH counter cell ids not strictly increasing");
    }
    if (!std::isfinite(value) || value < 0.0 || level > 64) {
      return CorruptSnapshot("WBMH counter cell value");
    }
    cells_.push_back(Cell{id, value, static_cast<uint32_t>(level)});
  }
  // Cross-structure validation: e.g. a hostile snapshot may carry counts
  // for bucket ids the (already decoded) layout does not hold.
  return RefuseUnaudited(AuditInvariants(params));
}

size_t WbmhState::StorageBits(const WbmhParams& params) const {
  // Each count is bounded by the total. Exact counts take
  // ceil(log2(total + 1)) bits; a rounded one takes its mantissa plus an
  // exponent field addressing log2(total) + 1 exponents.
  const double max_count = std::max(RawTotal(), 2.0);
  const int exact_bits =
      static_cast<int>(std::ceil(std::log2(max_count + 1.0)));
  const int exponent_bits =
      static_cast<int>(std::ceil(std::log2(std::log2(max_count) + 1.0)));
  size_t bits = 0;
  for (const Cell& cell : cells_) {
    const int mantissa = params.MantissaBitsForLevel(cell.level);
    bits += static_cast<size_t>(mantissa > 0 ? mantissa + exponent_bits
                                             : exact_bits);
  }
  // One op-sequence register (clock analogue), log2 of elapsed ticks.
  const WbmhLayout& layout = *params.layout;
  const Tick elapsed = std::max<Tick>(2, layout.now() - layout.start() + 1);
  bits += static_cast<size_t>(
      std::ceil(std::log2(static_cast<double>(elapsed) + 1.0)));
  return bits;
}

}  // namespace tds
