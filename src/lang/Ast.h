//===-- Ast.h - ThinJ abstract syntax ----------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node definitions for ThinJ. Nodes are arena-allocated in an
/// AstModule and freely reference each other with raw pointers. Name
/// and type resolution happens during lowering (Lower.cpp), not here.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_LANG_AST_H
#define THINSLICER_LANG_AST_H

#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace tsl {

//===----------------------------------------------------------------------===//
// Type expressions
//===----------------------------------------------------------------------===//

/// A syntactic type: a named base (primitive or class name) plus array
/// rank, e.g. "Vector", "int[][]".
struct TypeExprAst {
  enum class Base { Int, Bool, String, Void, Named };
  Base BaseKind = Base::Named;
  std::string Name; ///< For Named bases.
  unsigned ArrayRank = 0;
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind {
  IntLit,
  BoolLit,
  StrLit,
  NullLit,
  This,
  NameRef,
  Unary,
  Binary,
  Logical,
  FieldAccess,
  Index,
  Call,
  NewObject,
  NewArray,
  Cast,
  InstanceOf,
  Read,
};

/// Base class of expression nodes.
struct ExprAst {
  explicit ExprAst(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  virtual ~ExprAst() = default;

  ExprKind kind() const { return Kind; }

  ExprKind Kind;
  SourceLoc Loc;
  /// True for the placeholder the parser substitutes when recovering
  /// from a malformed expression. Lowering treats it as an
  /// already-diagnosed error instead of a real 'null', so one parse
  /// error does not cascade into spurious type diagnostics.
  bool Recovered = false;
  /// Levels of the tree rooted here: 1 for a leaf, one more than the
  /// tallest operand otherwise. The parser bounds it (see Parser.cpp).
  unsigned Height = 1;

protected:
  /// Raises Height above each of \p Kids (null operands allowed).
  void above(std::initializer_list<const ExprAst *> Kids) {
    for (const ExprAst *K : Kids)
      if (K && K->Height >= Height)
        Height = K->Height + 1;
  }
  void above(const std::vector<ExprAst *> &Kids) {
    for (const ExprAst *K : Kids)
      above({K});
  }
};

struct IntLitExpr : ExprAst {
  IntLitExpr(int64_t Value, SourceLoc Loc)
      : ExprAst(ExprKind::IntLit, Loc), Value(Value) {}
  int64_t Value;
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::IntLit; }
};

struct BoolLitExpr : ExprAst {
  BoolLitExpr(bool Value, SourceLoc Loc)
      : ExprAst(ExprKind::BoolLit, Loc), Value(Value) {}
  bool Value;
  static bool classof(const ExprAst *E) {
    return E->Kind == ExprKind::BoolLit;
  }
};

struct StrLitExpr : ExprAst {
  StrLitExpr(std::string Value, SourceLoc Loc)
      : ExprAst(ExprKind::StrLit, Loc), Value(std::move(Value)) {}
  std::string Value;
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::StrLit; }
};

struct NullLitExpr : ExprAst {
  explicit NullLitExpr(SourceLoc Loc) : ExprAst(ExprKind::NullLit, Loc) {}
  static bool classof(const ExprAst *E) {
    return E->Kind == ExprKind::NullLit;
  }
};

struct ThisExpr : ExprAst {
  explicit ThisExpr(SourceLoc Loc) : ExprAst(ExprKind::This, Loc) {}
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::This; }
};

/// A bare name: a local, an implicit-this field, or a class name
/// (resolved during lowering).
struct NameRefExpr : ExprAst {
  NameRefExpr(std::string Name, SourceLoc Loc)
      : ExprAst(ExprKind::NameRef, Loc), Name(std::move(Name)) {}
  std::string Name;
  static bool classof(const ExprAst *E) {
    return E->Kind == ExprKind::NameRef;
  }
};

struct UnaryExpr : ExprAst {
  enum class Op { Neg, Not };
  UnaryExpr(Op O, ExprAst *Sub, SourceLoc Loc)
      : ExprAst(ExprKind::Unary, Loc), O(O), Sub(Sub) {
    above({Sub});
  }
  Op O;
  ExprAst *Sub;
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::Unary; }
};

struct BinaryExpr : ExprAst {
  enum class Op { Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne };
  BinaryExpr(Op O, ExprAst *LHS, ExprAst *RHS, SourceLoc Loc)
      : ExprAst(ExprKind::Binary, Loc), O(O), LHS(LHS), RHS(RHS) {
    above({LHS, RHS});
  }
  Op O;
  ExprAst *LHS;
  ExprAst *RHS;
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::Binary; }
};

/// Short-circuit && / ||.
struct LogicalExpr : ExprAst {
  enum class Op { And, Or };
  LogicalExpr(Op O, ExprAst *LHS, ExprAst *RHS, SourceLoc Loc)
      : ExprAst(ExprKind::Logical, Loc), O(O), LHS(LHS), RHS(RHS) {
    above({LHS, RHS});
  }
  Op O;
  ExprAst *LHS;
  ExprAst *RHS;
  static bool classof(const ExprAst *E) {
    return E->Kind == ExprKind::Logical;
  }
};

/// base.name — a field read, a static field read (base is a class
/// name), or the callee part of a method call.
struct FieldAccessExpr : ExprAst {
  FieldAccessExpr(ExprAst *Base, std::string Name, SourceLoc Loc)
      : ExprAst(ExprKind::FieldAccess, Loc), Base(Base),
        Name(std::move(Name)) {
    above({Base});
  }
  ExprAst *Base;
  std::string Name;
  static bool classof(const ExprAst *E) {
    return E->Kind == ExprKind::FieldAccess;
  }
};

/// base[index] — array element access, or array.length spelled as a
/// FieldAccess with name "length".
struct IndexExpr : ExprAst {
  IndexExpr(ExprAst *Base, ExprAst *Index, SourceLoc Loc)
      : ExprAst(ExprKind::Index, Loc), Base(Base), Index(Index) {
    above({Base, Index});
  }
  ExprAst *Base;
  ExprAst *Index;
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::Index; }
};

/// callee(args). Callee is a NameRef (free function, implicit-this
/// method, or builtin) or a FieldAccess (method call / static call).
struct CallExprAst : ExprAst {
  CallExprAst(ExprAst *Callee, std::vector<ExprAst *> Args, SourceLoc Loc)
      : ExprAst(ExprKind::Call, Loc), Callee(Callee), Args(std::move(Args)) {
    above({Callee});
    above(this->Args);
  }
  ExprAst *Callee;
  std::vector<ExprAst *> Args;
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::Call; }
};

struct NewObjectExpr : ExprAst {
  NewObjectExpr(std::string ClassName, std::vector<ExprAst *> Args,
                SourceLoc Loc)
      : ExprAst(ExprKind::NewObject, Loc), ClassName(std::move(ClassName)),
        Args(std::move(Args)) {
    above(this->Args);
  }
  std::string ClassName;
  std::vector<ExprAst *> Args;
  static bool classof(const ExprAst *E) {
    return E->Kind == ExprKind::NewObject;
  }
};

struct NewArrayExpr : ExprAst {
  NewArrayExpr(TypeExprAst ElemType, ExprAst *Length, SourceLoc Loc)
      : ExprAst(ExprKind::NewArray, Loc), ElemType(std::move(ElemType)),
        Length(Length) {
    above({Length});
  }
  TypeExprAst ElemType;
  ExprAst *Length;
  static bool classof(const ExprAst *E) {
    return E->Kind == ExprKind::NewArray;
  }
};

struct CastExpr : ExprAst {
  CastExpr(TypeExprAst Target, ExprAst *Sub, SourceLoc Loc)
      : ExprAst(ExprKind::Cast, Loc), Target(std::move(Target)), Sub(Sub) {
    above({Sub});
  }
  TypeExprAst Target;
  ExprAst *Sub;
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::Cast; }
};

struct InstanceOfExpr : ExprAst {
  InstanceOfExpr(ExprAst *Sub, TypeExprAst Target, SourceLoc Loc)
      : ExprAst(ExprKind::InstanceOf, Loc), Sub(Sub),
        Target(std::move(Target)) {
    above({Sub});
  }
  ExprAst *Sub;
  TypeExprAst Target;
  static bool classof(const ExprAst *E) {
    return E->Kind == ExprKind::InstanceOf;
  }
};

/// readLine() or readInt().
struct ReadExpr : ExprAst {
  ReadExpr(bool IsLine, SourceLoc Loc)
      : ExprAst(ExprKind::Read, Loc), IsLine(IsLine) {}
  bool IsLine;
  static bool classof(const ExprAst *E) { return E->Kind == ExprKind::Read; }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind {
  Block,
  VarDecl,
  Assign,
  ExprStmt,
  If,
  While,
  Return,
  Throw,
  Break,
  Continue,
  Print,
  SuperCall,
};

/// Base class of statement nodes.
struct StmtAst {
  explicit StmtAst(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  virtual ~StmtAst() = default;

  StmtKind kind() const { return Kind; }

  StmtKind Kind;
  SourceLoc Loc;
};

struct BlockStmt : StmtAst {
  BlockStmt(std::vector<StmtAst *> Stmts, SourceLoc Loc)
      : StmtAst(StmtKind::Block, Loc), Stmts(std::move(Stmts)) {}
  std::vector<StmtAst *> Stmts;
  static bool classof(const StmtAst *S) { return S->Kind == StmtKind::Block; }
};

/// var name [: type] = init;
struct VarDeclStmt : StmtAst {
  VarDeclStmt(std::string Name, bool HasType, TypeExprAst Type, ExprAst *Init,
              SourceLoc Loc)
      : StmtAst(StmtKind::VarDecl, Loc), Name(std::move(Name)),
        HasType(HasType), Type(std::move(Type)), Init(Init) {}
  std::string Name;
  bool HasType;
  TypeExprAst Type;
  ExprAst *Init;
  static bool classof(const StmtAst *S) {
    return S->Kind == StmtKind::VarDecl;
  }
};

/// lhs = rhs; where lhs is a NameRef, FieldAccess, or Index expression.
struct AssignStmt : StmtAst {
  AssignStmt(ExprAst *LHS, ExprAst *RHS, SourceLoc Loc)
      : StmtAst(StmtKind::Assign, Loc), LHS(LHS), RHS(RHS) {}
  ExprAst *LHS;
  ExprAst *RHS;
  static bool classof(const StmtAst *S) { return S->Kind == StmtKind::Assign; }
};

struct ExprStmt : StmtAst {
  ExprStmt(ExprAst *E, SourceLoc Loc)
      : StmtAst(StmtKind::ExprStmt, Loc), E(E) {}
  ExprAst *E;
  static bool classof(const StmtAst *S) {
    return S->Kind == StmtKind::ExprStmt;
  }
};

struct IfStmt : StmtAst {
  IfStmt(ExprAst *Cond, StmtAst *Then, StmtAst *Else, SourceLoc Loc)
      : StmtAst(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  ExprAst *Cond;
  StmtAst *Then;
  StmtAst *Else; ///< May be null.
  static bool classof(const StmtAst *S) { return S->Kind == StmtKind::If; }
};

struct WhileStmt : StmtAst {
  WhileStmt(ExprAst *Cond, StmtAst *Body, SourceLoc Loc)
      : StmtAst(StmtKind::While, Loc), Cond(Cond), Body(Body) {}
  ExprAst *Cond;
  StmtAst *Body;
  static bool classof(const StmtAst *S) { return S->Kind == StmtKind::While; }
};

struct ReturnStmt : StmtAst {
  ReturnStmt(ExprAst *Value, SourceLoc Loc)
      : StmtAst(StmtKind::Return, Loc), Value(Value) {}
  ExprAst *Value; ///< May be null.
  static bool classof(const StmtAst *S) { return S->Kind == StmtKind::Return; }
};

struct ThrowStmt : StmtAst {
  ThrowStmt(ExprAst *Value, SourceLoc Loc)
      : StmtAst(StmtKind::Throw, Loc), Value(Value) {}
  ExprAst *Value;
  static bool classof(const StmtAst *S) { return S->Kind == StmtKind::Throw; }
};

struct BreakStmt : StmtAst {
  explicit BreakStmt(SourceLoc Loc) : StmtAst(StmtKind::Break, Loc) {}
  static bool classof(const StmtAst *S) { return S->Kind == StmtKind::Break; }
};

struct ContinueStmt : StmtAst {
  explicit ContinueStmt(SourceLoc Loc) : StmtAst(StmtKind::Continue, Loc) {}
  static bool classof(const StmtAst *S) {
    return S->Kind == StmtKind::Continue;
  }
};

struct PrintStmt : StmtAst {
  PrintStmt(ExprAst *Value, SourceLoc Loc)
      : StmtAst(StmtKind::Print, Loc), Value(Value) {}
  ExprAst *Value;
  static bool classof(const StmtAst *S) { return S->Kind == StmtKind::Print; }
};

/// super(args); — superclass constructor call, valid only in `init`.
struct SuperCallStmt : StmtAst {
  SuperCallStmt(std::vector<ExprAst *> Args, SourceLoc Loc)
      : StmtAst(StmtKind::SuperCall, Loc), Args(std::move(Args)) {}
  std::vector<ExprAst *> Args;
  static bool classof(const StmtAst *S) {
    return S->Kind == StmtKind::SuperCall;
  }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

struct ParamAst {
  std::string Name;
  TypeExprAst Type;
  SourceLoc Loc;
};

struct MethodDeclAst {
  std::string Name;
  bool IsStatic = false;
  std::vector<ParamAst> Params;
  bool HasReturnType = false;
  TypeExprAst ReturnType; ///< Valid when HasReturnType; else void.
  BlockStmt *Body = nullptr;
  SourceLoc Loc;
};

struct FieldDeclAst {
  std::string Name;
  TypeExprAst Type;
  bool IsStatic = false;
  ExprAst *Init = nullptr; ///< Static fields only; may be null.
  SourceLoc Loc;
};

struct ClassDeclAst {
  std::string Name;
  std::string SuperName; ///< Empty when extending Object implicitly.
  std::vector<FieldDeclAst> Fields;
  std::vector<MethodDeclAst> Methods;
  SourceLoc Loc;
};

/// A parsed compilation unit; owns every AST node.
class AstModule {
public:
  template <typename T, typename... ArgTs> T *createExpr(ArgTs &&...Args) {
    auto Node = std::make_unique<T>(std::forward<ArgTs>(Args)...);
    T *Ptr = Node.get();
    Exprs.push_back(std::move(Node));
    return Ptr;
  }

  template <typename T, typename... ArgTs> T *createStmt(ArgTs &&...Args) {
    auto Node = std::make_unique<T>(std::forward<ArgTs>(Args)...);
    T *Ptr = Node.get();
    Stmts.push_back(std::move(Node));
    return Ptr;
  }

  std::vector<ClassDeclAst> Classes;
  std::vector<MethodDeclAst> Functions; ///< Top-level (implicitly static).

private:
  std::vector<std::unique_ptr<ExprAst>> Exprs;
  std::vector<std::unique_ptr<StmtAst>> Stmts;
};

} // namespace tsl

#endif // THINSLICER_LANG_AST_H
