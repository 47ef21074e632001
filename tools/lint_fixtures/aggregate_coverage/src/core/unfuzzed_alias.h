// Lint fixture: a Standalone<State> alias is a DecayedAggregate
// implementation in its own right, so one that no fuzz driver names must be
// rejected (rule: aggregate-coverage, alias arm) even though the template
// declares the audit hook. The fixture tree has an empty tests/fuzz/.
#ifndef TDS_LINT_FIXTURE_UNFUZZED_ALIAS_H_
#define TDS_LINT_FIXTURE_UNFUZZED_ALIAS_H_

namespace tds_fixture {

class UnfuzzedState {
 public:
  double Query(long now) const;
};

using UnfuzzedAlias = Standalone<UnfuzzedState>;

}  // namespace tds_fixture

#endif  // TDS_LINT_FIXTURE_UNFUZZED_ALIAS_H_
