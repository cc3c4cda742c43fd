// Fixture: the serializer side — an X-macro field list that silently
// dropped a counter (and carries one stale entry for the reverse check).
// `label` is a string member: listing it must stay silent.
#define JETTY_BUS_STAT_FIELDS(X)                                             \
    X(transactions)                                                          \
    X(reads)                                                                 \
    X(readXs)                                                                \
    X(label)                                                                 \
    X(snoops)

namespace jetty::experiments
{

// The real serializer expands the list twice (writer + reader); one
// expansion is enough for the completeness check to bind.
struct BusRow
{
#define X(f) unsigned long long f;
    JETTY_BUS_STAT_FIELDS(X)
#undef X
};

} // namespace jetty::experiments
