// Job placement over a cluster fabric (paper §4, "Placing compatible jobs on
// links"): what a job asks for, where it was put, and the ring-allreduce
// paths that placement induces.  Choosing the hosts is the online admission
// controller's job (orch/admission.h).
#pragma once

#include <string>
#include <vector>

#include "core/profile.h"
#include "net/routing.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace ccml {

struct JobRequest {
  std::string name;
  JobProfile profile;
  int workers = 2;
  /// Profile of the job on a dedicated network; used for compatibility
  /// checks.  Filled by callers (analytic or measured).
  CommProfile comm_profile;
};

struct Placement {
  std::vector<NodeId> hosts;  ///< one per worker; empty = placement failed
  bool spans_fabric = false;  ///< true when workers sit under multiple ToRs
};

/// Ring-allreduce paths for a placed job: worker i sends to worker i+1
/// (mod n).  Paths between hosts under one ToR stay rack-local; others cross
/// the fabric via ECMP.
std::vector<JobPath> ring_paths(const Router& router,
                                const std::vector<NodeId>& hosts,
                                std::uint64_t ecmp_salt);

}  // namespace ccml
