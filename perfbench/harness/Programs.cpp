//===-- Programs.cpp - Seeded benchmark inputs ----------------------------===//
//
// Part of ThinSlicer's repository benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#include "harness/Programs.h"

#include "eval/Experiments.h"
#include "eval/Workload.h"

#include <algorithm>
#include <stdexcept>

using namespace pb;
using namespace tsl;

namespace {

/// Padding tag passed to padWorkload: classes are Pad<Tag><c>.
const char *const Tag = "B";

struct Model {
  WorkloadProgram Prog;
  std::vector<std::string> SeedMarkers;
};

const std::vector<Model> &allModels() {
  static const std::vector<Model> Models = [] {
    std::vector<Model> Out;
    for (const BugCase &C : debuggingCases()) {
      auto It = std::find_if(Out.begin(), Out.end(), [&](const Model &M) {
        return M.Prog.Name == C.Prog.Name;
      });
      if (It == Out.end()) {
        Out.push_back({C.Prog, {}});
        It = Out.end() - 1;
      }
      It->SeedMarkers.push_back(C.SeedMarker);
    }
    return Out;
  }();
  return Models;
}

std::string trim(const std::string &S) {
  std::size_t B = S.find_first_not_of(' ');
  return B == std::string::npos ? "" : S.substr(B);
}

/// Padding statements that always compile to at least one instruction.
bool isPaddingStatement(const std::string &Line) {
  std::string T = trim(Line);
  return T == "acc = acc * 3 + total;" || T == "cache.add(label + acc);" ||
         T == "total = total + acc % 17;" || T == "return acc;" ||
         T.rfind("sum = sum + p", 0) == 0;
}

std::string num(unsigned N) { return std::to_string(N); }

/// The text of padding method `work<M>` in state \p S; variant 0 with
/// no rename is byte-identical to generatePadding's output.
std::string renderMethod(unsigned M, MethodState S) {
  const std::string X = S.Renamed ? "xr" : "x";
  const std::string K = num(M * 7 + 1);
  std::string Out = "  def work" + num(M) + "(" + X + ": int): int {\n";
  Out += S.Variant == 3 ? "    var acc = " + X + " + " + K + " + 1;\n"
                        : "    var acc = " + X + " + " + K + ";\n";
  if (S.Variant == 4)
    Out += "    acc = acc + " + X + " % 5;\n";
  Out += "    if (acc % 2 == 0) {\n";
  Out += S.Variant == 1 ? "      acc = " + X + " * 3 + total;\n"
                        : "      acc = acc * 3 + total;\n";
  Out += "    } else {\n";
  Out += "      acc = acc - total;\n";
  Out += "    }\n";
  Out += S.Variant == 2 ? "    cache.add(label + " + X + ");\n"
                        : "    cache.add(label + acc);\n";
  Out += "    total = total + acc % 17;\n";
  Out += "    return acc;\n";
  Out += "  }\n";
  return Out;
}

std::pair<std::size_t, std::size_t> methodRegion(const std::string &Src,
                                                 unsigned Class,
                                                 unsigned Method) {
  const std::string ClassHead =
      std::string("class Pad") + Tag + num(Class) + " {\n";
  std::size_t C = Src.find(ClassHead);
  if (C == std::string::npos)
    throw std::runtime_error("no padding class " + num(Class));
  std::size_t B = Src.find("  def work" + num(Method) + "(", C);
  std::size_t E = B == std::string::npos ? B : Src.find("\n  }\n", B);
  if (E == std::string::npos)
    throw std::runtime_error("no padding method " + num(Method));
  return {B, E + 5};
}

unsigned lineAtOffset(const std::string &Src, std::size_t Off) {
  return 1 + static_cast<unsigned>(
                 std::count(Src.begin(), Src.begin() + Off, '\n'));
}

} // namespace

unsigned pb::numModels() { return allModels().size(); }

const std::string &pb::modelName(unsigned Model) {
  return allModels().at(Model).Prog.Name;
}

BenchProgram pb::makeProgram(unsigned ModelIdx, unsigned Pad,
                             unsigned NumQueries) {
  const Model &M = allModels().at(ModelIdx);
  WorkloadProgram W = padWorkload(M.Prog, Tag, Pad, PadMethods);
  BenchProgram P;
  P.Model = ModelIdx;
  P.Pad = Pad;
  P.Name = W.Name;
  P.Source = W.Source;

  for (const std::string &Marker : M.SeedMarkers) {
    unsigned L = W.markerLine(Marker);
    if (L && P.QueryLines.size() < NumQueries &&
        std::find(P.QueryLines.begin(), P.QueryLines.end(), L) ==
            P.QueryLines.end())
      P.QueryLines.push_back(L);
  }

  std::vector<unsigned> Candidates;
  unsigned Line = 1;
  for (std::size_t Pos = 0; Pos < P.Source.size(); ++Line) {
    std::size_t End = P.Source.find('\n', Pos);
    if (End == std::string::npos)
      End = P.Source.size();
    if (isPaddingStatement(P.Source.substr(Pos, End - Pos)))
      Candidates.push_back(Line);
    Pos = End + 1;
  }
  std::size_t Want = NumQueries - P.QueryLines.size();
  for (std::size_t I = 0; I != Want && !Candidates.empty(); ++I) {
    std::size_t Idx = (I * Candidates.size()) / Want;
    if (Idx < Candidates.size() && (P.QueryLines.empty() ||
                                    P.QueryLines.back() != Candidates[Idx]))
      P.QueryLines.push_back(Candidates[Idx]);
  }
  return P;
}

EditableProgram::EditableProgram(BenchProgram P)
    : Base(std::move(P)), Source(Base.Source) {}

MethodState EditableProgram::state(unsigned Class, unsigned Method) const {
  auto It = States.find({Class, Method});
  return It == States.end() ? MethodState() : It->second;
}

std::pair<std::size_t, std::size_t>
EditableProgram::region(unsigned Class, unsigned Method) const {
  return methodRegion(Source, Class, Method);
}

void EditableProgram::set(unsigned Class, unsigned Method, MethodState S) {
  auto [B, E] = region(Class, Method);
  Source.replace(B, E - B, renderMethod(Method, S));
  States[{Class, Method}] = S;
}

unsigned EditableProgram::returnLine(unsigned Class, unsigned Method) const {
  auto [B, E] = region(Class, Method);
  std::size_t Ret = Source.find("    return acc;", B);
  return lineAtOffset(Source, Ret < E ? Ret : B);
}

std::string pb::variantSource(const BenchProgram &P, unsigned Class,
                              unsigned Method, MethodState S) {
  EditableProgram E(P);
  E.set(Class, Method, S);
  return E.source();
}
