#include "cq/parse.h"

#include <unordered_map>

#include "base/check.h"
#include "base/strings.h"

namespace cqa {
namespace {

// Splits "R(a,b), S(c)" on top-level commas (outside parentheses).
std::vector<std::string> SplitTopLevel(std::string_view text) {
  std::vector<std::string> parts;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || (text[i] == ',' && depth == 0)) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    } else if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      --depth;
    }
  }
  return parts;
}

}  // namespace

std::optional<ConjunctiveQuery> ParseQuery(VocabularyPtr vocab,
                                           std::string_view text,
                                           std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<ConjunctiveQuery> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::string_view rest = Trim(text);
  if (!rest.empty() && rest.back() == '.') {
    rest = Trim(rest.substr(0, rest.size() - 1));
  }
  const size_t sep = rest.find(":-");
  if (sep == std::string_view::npos) return fail("missing ':-'");
  const std::string_view head = Trim(rest.substr(0, sep));
  const std::string_view body = Trim(rest.substr(sep + 2));

  const size_t open = head.find('(');
  if (open == std::string_view::npos || head.back() != ')') {
    return fail("malformed head: " + std::string(head));
  }
  const std::string_view head_args =
      Trim(head.substr(open + 1, head.size() - open - 2));

  ConjunctiveQuery q(vocab);
  std::unordered_map<std::string, int> vars;
  auto intern = [&](std::string_view name) {
    const auto it = vars.find(std::string(name));
    if (it != vars.end()) return it->second;
    const int v = q.AddVariable(std::string(name));
    vars.emplace(std::string(name), v);
    return v;
  };

  // Body first so that head variables are guaranteed to occur in atoms.
  if (body.empty()) return fail("empty body");
  for (const std::string& raw_atom : SplitTopLevel(body)) {
    const std::string_view atom = Trim(raw_atom);
    const size_t aopen = atom.find('(');
    if (aopen == std::string_view::npos || atom.back() != ')') {
      return fail("malformed atom: " + std::string(atom));
    }
    const std::string_view rel_name = Trim(atom.substr(0, aopen));
    const auto rel = vocab->FindRelation(rel_name);
    if (!rel.has_value()) {
      return fail("unknown relation: " + std::string(rel_name));
    }
    const std::string_view args =
        atom.substr(aopen + 1, atom.size() - aopen - 2);
    std::vector<int> atom_vars;
    // "P()" is a nullary atom: empty arguments are zero variables.
    if (!Trim(args).empty()) {
      for (const std::string& field : Split(args, ',')) {
        const std::string_view name = Trim(field);
        if (!IsIdentifier(name)) {
          return fail("malformed variable: " + std::string(name));
        }
        atom_vars.push_back(intern(name));
      }
    }
    if (static_cast<int>(atom_vars.size()) != vocab->arity(*rel)) {
      return fail("arity mismatch for " + std::string(rel_name));
    }
    q.AddAtom(*rel, std::move(atom_vars));
  }

  std::vector<int> free_vars;
  if (!head_args.empty()) {
    for (const std::string& field : Split(head_args, ',')) {
      const std::string_view name = Trim(field);
      if (!IsIdentifier(name)) {
        return fail("malformed head variable: " + std::string(name));
      }
      const auto it = vars.find(std::string(name));
      if (it == vars.end()) {
        return fail("head variable not in body: " + std::string(name));
      }
      free_vars.push_back(it->second);
    }
  }
  q.SetFreeVariables(std::move(free_vars));
  q.Validate();
  return q;
}

ConjunctiveQuery MustParseQuery(VocabularyPtr vocab, std::string_view text) {
  std::string error;
  auto q = ParseQuery(std::move(vocab), text, &error);
  if (!q.has_value()) {
    std::fprintf(stderr, "MustParseQuery failed: %s\n", error.c_str());
  }
  CQA_CHECK(q.has_value());
  return *std::move(q);
}

}  // namespace cqa
