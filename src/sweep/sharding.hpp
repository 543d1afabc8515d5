#pragma once

// Study sharding: the paper collected its 240k samples in cluster batches;
// this utility splits a StudyPlan into independent shards (one per batch
// job) whose stores merge back into the exact single-run result —
// sharding must not change the collected data, only who collects it.
//
// Invariants:
//  - shard_plan partitions the settings: every setting of `plan` appears in
//    exactly one shard, and shard counts may exceed the number of settings
//    (the surplus shards are simply empty plans — running one yields an
//    empty store).
//  - shard_store_mismatch is the delivery check of a shard store against
//    its shard plan. It reads only the store's setting index (metadata,
//    no Sample is built): the store must hold exactly the shard's
//    settings, each with its planned row count. The shard stores
//    themselves merge through store/tiered, the one merge of the system.

#include <cstddef>
#include <optional>
#include <string>

#include "sweep/harness.hpp"

namespace omptune::store {
class StoreReader;
}

namespace omptune::sweep {

/// The `index`-th of `count` shards of `plan`: settings are dealt
/// round-robin across shards (so every shard gets a mix of architectures
/// and cheap/expensive settings). Throws std::invalid_argument on
/// index >= count or count == 0.
StudyPlan shard_plan(const StudyPlan& plan, std::size_t index, std::size_t count);

/// Why `store` is not a delivery of `shard` — a setting of the plan it
/// lacks, one with the wrong row count, or one the plan never asked for;
/// nullopt when its setting index holds exactly the shard's settings, each
/// with its config_count rows. A plan setting is keyed the way its samples
/// are: num_threads == 0 stands for the architecture's cores.
std::optional<std::string> shard_store_mismatch(const StudyPlan& shard,
                                                const store::StoreReader& store);

}  // namespace omptune::sweep
