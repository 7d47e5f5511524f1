//===-- Programs.h - Seeded benchmark inputs --------------------*- C++ -*-==//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs every workload feeds the system: Table 2 bug models
/// (nanoxml, jtopas, ant, xmlsec) grown with padWorkload to a chosen
/// number of padding classes, the query lines sliced on each, and the
/// source edits the edit-driven workloads apply.
///
/// A program is a pure function of (model, pad), and so are its query
/// lines; the workload seed only chooses which (model, pad) pairs a
/// run uses and in which order. That keeps stored expected digests
/// valid for every seed.
///
/// Edits rewrite one padding method `Pad<tag><c>.work<m>` in place:
/// body variants change its data flow (which line feeds which), and a
/// rename of its parameter changes its signature, which the
/// incremental front end must treat as ineligible (cold fallback).
/// Body variants 1-3 keep the line count, so query lines stay valid
/// across them; variant 4 inserts a line and shifts the code below.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Number of Table 2 bug models.
unsigned numModels();
const std::string &modelName(unsigned Model);

/// Methods per padding class (as the repository's scalability sweep).
constexpr unsigned PadMethods = 6;

struct BenchProgram {
  unsigned Model = 0;
  unsigned Pad = 0;
  std::string Name;   ///< "<model>+pad<N>".
  std::string Source; ///< Complete source, runtime library included.
  /// Statement lines to slice from: the model's Table 2 failure
  /// points, then padding statements spread evenly over the program.
  std::vector<unsigned> QueryLines;
};

/// The program for (\p Model, \p Pad) with up to \p NumQueries query
/// lines.
BenchProgram makeProgram(unsigned Model, unsigned Pad, unsigned NumQueries);

/// State of one editable padding method.
struct MethodState {
  unsigned Variant = 0; ///< 0 = as generated; 1..4 see file comment.
  bool Renamed = false; ///< Parameter renamed (signature change).
};

/// Number of body variants (including the original, 0).
constexpr unsigned NumBodyVariants = 5;

/// A program whose padding methods can be rewritten in place.
class EditableProgram {
public:
  explicit EditableProgram(BenchProgram P);

  const BenchProgram &base() const { return Base; }
  const std::string &source() const { return Source; }
  MethodState state(unsigned Class, unsigned Method) const;

  /// Rewrites method \p Method of padding class \p Class to \p S.
  void set(unsigned Class, unsigned Method, MethodState S);

  /// Current line of the method's `return acc;` statement: the query
  /// an edit-follow-up slice starts from.
  unsigned returnLine(unsigned Class, unsigned Method) const;

private:
  /// [begin, end) byte range of the method's text in Source.
  std::pair<std::size_t, std::size_t> region(unsigned Class,
                                             unsigned Method) const;

  BenchProgram Base;
  std::string Source;
  std::map<std::pair<unsigned, unsigned>, MethodState> States;
};

/// The source of \p P with one method set to \p S (all else as
/// generated).
std::string variantSource(const BenchProgram &P, unsigned Class,
                          unsigned Method, MethodState S);

} // namespace pb

#endif // PERFBENCH_PROGRAMS_H
