#pragma once

#include "oracles.h"

namespace campaignbench {

// Feeds every correctness check a genuine result (which must pass) and
// tampered copies of it (each of which must be refused).
void run_self_test(CheckLog& log);

}  // namespace campaignbench
