// Fixture: the struct side of the lossless-serialization contract.
// `upgrades` is deliberately omitted from the X-macro list in
// ../experiments/run_result_json.cc — the lint must name it.
#include <cstdint>
#include <string>

namespace jetty::sim
{

struct BusStats
{
    std::uint64_t transactions = 0;
    std::uint64_t reads = 0;
    std::uint64_t readXs = 0;
    std::uint64_t upgrades = 0;  // line 15: missing from the X list
    std::string label;  // negative control: strings are scalar, listed
};

} // namespace jetty::sim
