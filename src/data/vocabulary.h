// Relational vocabularies (schemas): a finite list of relation symbols, each
// with a fixed arity. Databases, conjunctive queries and tableaux are all
// interpreted over a vocabulary (paper, Section 2).

#ifndef CQA_DATA_VOCABULARY_H_
#define CQA_DATA_VOCABULARY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cqa {

/// Dense identifier of a relation symbol within a vocabulary.
using RelationId = int;

/// A relational vocabulary: relation symbols R_1,...,R_l with arities.
///
/// Vocabularies are immutable once shared; build one, then pass it around via
/// `std::shared_ptr<const Vocabulary>` so databases and queries can assert
/// they speak the same schema.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Adds a relation symbol. `name` must be a fresh identifier and `arity`
  /// non-negative (0 = a nullary, propositional symbol). Returns its dense
  /// id.
  RelationId AddRelation(std::string name, int arity);

  /// Returns the id of `name`, or nullopt if absent.
  std::optional<RelationId> FindRelation(std::string_view name) const;

  /// Number of relation symbols.
  int num_relations() const { return static_cast<int>(arities_.size()); }

  /// Arity of relation `id`.
  int arity(RelationId id) const;

  /// Name of relation `id`.
  const std::string& name(RelationId id) const;

  /// Largest arity over all symbols (the `m` of Theorem 6.1); 0 if empty.
  int max_arity() const;

  /// Structural equality (same symbols with same arities in same order).
  bool operator==(const Vocabulary& other) const;

  /// Convenience: the vocabulary of digraphs, a single binary symbol "E".
  static std::shared_ptr<const Vocabulary> Graph();

  /// Convenience: a single symbol `name` of the given arity.
  static std::shared_ptr<const Vocabulary> Single(std::string name, int arity);

 private:
  std::vector<std::string> names_;
  std::vector<int> arities_;
  std::unordered_map<std::string, RelationId> by_name_;
};

using VocabularyPtr = std::shared_ptr<const Vocabulary>;

}  // namespace cqa

#endif  // CQA_DATA_VOCABULARY_H_
