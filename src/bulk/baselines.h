// Bulk-engine ports of the baseline protocols: Luby A/B, the CRT
// randomized greedy, Israeli-Itai matching, and beeping MIS.
//
// These protocols are round-lockstep in the traditional model — every
// still-active node is awake in every round until it terminates — so
// the bulk port maintains one shrinking alive list and executes each
// round as a flat scan, drawing from the same per-node RNG streams in
// the same order as the coroutine implementations. Outputs and
// sim::Metrics match the coroutine engine bit for bit
// (tests/bulk_engine_test.cc).
#pragma once

#include <memory>

#include "algos/beeping_mis.h"
#include "algos/greedy.h"
#include "algos/israeli_itai.h"
#include "algos/luby.h"
#include "algos/matching.h"  // algos::MisEngine
#include "bulk/engine.h"
#include "core/instrumentation.h"

namespace slumber::bulk {

class BulkLubyA final : public BulkProtocol {
 public:
  explicit BulkLubyA(algos::LubyOptions options = {}) : options_(options) {}
  void run(BulkEngine& engine) override;

 private:
  algos::LubyOptions options_;
};

class BulkLubyB final : public BulkProtocol {
 public:
  explicit BulkLubyB(algos::LubyOptions options = {}) : options_(options) {}
  void run(BulkEngine& engine) override;

 private:
  algos::LubyOptions options_;
};

class BulkGreedy final : public BulkProtocol {
 public:
  explicit BulkGreedy(algos::GreedyOptions options = {}) : options_(options) {}
  void run(BulkEngine& engine) override;

 private:
  algos::GreedyOptions options_;
};

class BulkIsraeliItai final : public BulkProtocol {
 public:
  explicit BulkIsraeliItai(algos::IsraeliItaiOptions options = {})
      : options_(options) {}
  void run(BulkEngine& engine) override;

 private:
  algos::IsraeliItaiOptions options_;
};

class BulkBeepingMis final : public BulkProtocol {
 public:
  explicit BulkBeepingMis(algos::BeepingMisOptions options = {})
      : options_(options) {}
  void run(BulkEngine& engine) override;

 private:
  algos::BeepingMisOptions options_;
};

/// Bulk implementation of an analysis-layer MIS engine, or nullptr when
/// the engine has no bulk port yet (Fast-SleepingMIS, Ghaffari). `trace`
/// is honored by the sleeping engine only, mirroring run_mis.
std::unique_ptr<BulkProtocol> bulk_mis_protocol(
    algos::MisEngine engine, core::RecursionTrace* trace = nullptr);

}  // namespace slumber::bulk
