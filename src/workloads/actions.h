// The action library behind the paper's evaluation (§6.3, §7):
//
//   glider.merge      — stateful "key,value" aggregation (Listing 1 / Fig. 4/5)
//   glider.filter     — near-data line filter proxying a backing file (Table 2)
//   glider.noop       — empty methods for the bandwidth micro-bench (Fig. 6)
//   glider.sorter     — shuffle receiver + in-storage sort (Fig. 7)
//   glider.sampler    — genomics: persists mapper output to ephemeral files
//                       while sampling keys (Fig. 8/9)
//   glider.manager    — genomics: aggregates samples, computes reducer ranges
//   glider.reader     — genomics: merges range-scoped records from many
//                       ephemeral files into one sorted stream per reducer
//   glider.ckpt-merge — merge with user-level checkpointing (the §4.2
//                       "checkpointing is up to the user" extension)
//
// All are registered in ActionRegistry::Global() at load time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "glider/action.h"
#include "workloads/pair_merge.h"
#include "workloads/record_run.h"

namespace glider::workloads {

// Aggregates "key,value" lines per key; read serializes "key,sum" lines,
// keys ascending. Every write stream merges into one PairMerge.
class MergeAction : public core::Action {
 public:
  void onWrite(core::ActionInputStream& in, core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;
  std::uint64_t StateBytes() const override;

 protected:
  PairMerge sums_;
};

// Config: "<backing-path>\n<token>". onRead streams only the lines of the
// backing file that contain the token — pre-processing offloaded to storage.
class FilterAction : public core::Action {
 public:
  void onCreate(core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;

 private:
  std::string backing_path_;
  std::string token_;
};

// Empty data methods (the paper's bandwidth micro-benchmark): writes are
// consumed and discarded; reads emit `config` bytes of zeros in chunks.
class NoopAction : public core::Action {
 public:
  void onCreate(core::ActionContext& ctx) override;
  void onWrite(core::ActionInputStream& in, core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;

 private:
  std::uint64_t read_bytes_ = 0;
  std::size_t read_chunk_ = 1 << 20;
};

// Receives shuffled records (P1), sorts them and writes the run to a file
// inside the storage system on first read (P2). Config: output file path.
// The received chunks stay as they arrived, indexed by one RecordRun that
// every write stream feeds; they are freed when the action is deleted.
class SorterAction : public core::Action {
 public:
  void onCreate(core::ActionContext& ctx) override;
  void onWrite(core::ActionInputStream& in, core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;
  std::uint64_t StateBytes() const override;

 private:
  std::string output_path_;
  RecordRun run_;
  bool sorted_written_ = false;
};

// Genomics sampler. Config: "<tmp-prefix>\n<stride>[\n<manager-path>]".
// Each incoming mapper stream is persisted to its own ephemeral file
// `<tmp-prefix>_<k>` while every stride-th record's position is kept as a
// sample. On read, the sampler first pushes its samples into the manager
// action (an action-to-action stream, entirely inside the storage system —
// paper §7.4 "these actions quickly interact with a manager action"), then
// emits one "F <file-path>" line per persisted file.
class SamplerAction : public core::Action {
 public:
  void onCreate(core::ActionContext& ctx) override;
  void onWrite(core::ActionInputStream& in, core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;
  std::uint64_t StateBytes() const override;

 private:
  std::string prefix_;
  std::size_t stride_ = 64;
  std::string manager_path_;
  std::size_t next_file_ = 0;
  std::vector<std::uint64_t> samples_;
  std::vector<std::string> files_;
};

// Genomics manager: aggregates sampled positions written by samplers
// (action-to-action streams) and serves reducer ranges. Config: the number
// of ranges to emit. onRead emits "lo,hi" lines covering [0, 2^63).
class ManagerAction : public core::Action {
 public:
  void onCreate(core::ActionContext& ctx) override;
  void onWrite(core::ActionInputStream& in, core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;
  std::uint64_t StateBytes() const override;

 private:
  std::size_t num_ranges_ = 1;
  std::vector<std::uint64_t> samples_;
};

// Genomics reader: merges the records of many ephemeral files whose
// position falls in [lo, hi) into one sorted stream. Config:
//   "<lo>,<hi>" then one file path per line.
class ReaderAction : public core::Action {
 public:
  void onCreate(core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;

 private:
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::vector<std::string> files_;
};

// Merge node of a reduction tree (paper §6.3: "the results may be further
// combined in a reduction tree ... easy through concatenating actions").
// Config: the parent merge action's path (empty = root). On read, a
// non-root node flushes its dictionary *into its parent* through an
// action-to-action stream — the partial aggregates never leave the storage
// system — and reports how many entries it forwarded; the root behaves
// like MergeAction and serializes the final dictionary.
class TreeMergeAction : public MergeAction {
 public:
  void onCreate(core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;

 private:
  std::string parent_path_;
};

// Interactive queries on action state (paper §3.1 lists them as a
// data-bound use case). Writes carry commands:
//   "put <key> <value>"  — upsert into the in-action index
//   "get <key>"          — queue a lookup
//   "count"              — queue the index size
// onRead drains the queued answers, one line each ("<key>=<value>",
// "<key>!missing", or "count=<n>").
class QueryableIndexAction : public core::Action {
 public:
  void onWrite(core::ActionInputStream& in, core::ActionContext& ctx) override;
  void onRead(core::ActionOutputStream& out, core::ActionContext& ctx) override;
  std::uint64_t StateBytes() const override;

 private:
  std::map<std::string, std::string> index_;
  std::vector<std::string> pending_answers_;
};

// Merge with user-level checkpointing (paper §4.2: resilience mechanisms
// are left to the developer; this shows the pattern). Config: the KV path
// used as the checkpoint. onCreate restores from the checkpoint when it
// exists; writing the control line "!checkpoint" persists the state.
class CheckpointMergeAction : public MergeAction {
 public:
  void onCreate(core::ActionContext& ctx) override;
  void onWrite(core::ActionInputStream& in, core::ActionContext& ctx) override;

 private:
  std::string checkpoint_path_;
};

// Forces the registration of this translation unit's actions (linkers may
// otherwise drop the static registrars of an unreferenced object file).
void RegisterWorkloadActions();

}  // namespace glider::workloads
