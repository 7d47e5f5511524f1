//===-- Parser.cpp - ThinJ parser -------------------------------------------==//

#include "lang/Parser.h"

#include <optional>
#include <utility>

using namespace tsl;

namespace {

/// Nesting limit of statements and expressions. The parser recurses
/// once per nested statement, operand, argument, prefix operator and
/// parenthesis; lowering recurses once per AST level. Input past this
/// many levels in either sense is rejected with one located diagnostic
/// instead of overflowing the stack (the limit leaves room for
/// sanitizer builds, whose frames are several times larger).
constexpr unsigned MaxNesting = 512;

/// Thrown when input exceeds MaxNesting; the enclosing method body or
/// field initializer is reported and skipped.
struct NestingTooDeep {
  SourceLoc Loc;
};

/// Recursive-descent parser over a pre-lexed token buffer. Buffering
/// the whole token stream makes backtracking (needed only for the
/// "(Type) expr" cast ambiguity) a simple index save/restore.
class Parser {
public:
  Parser(std::string_view Source, AstModule &Module, DiagnosticEngine &Diag)
      : Module(Module), Diag(Diag) {
    Lexer Lex(Source, Diag);
    while (true) {
      Token T = Lex.next();
      bool IsEof = T.is(TokKind::Eof);
      Toks.push_back(std::move(T));
      if (IsEof)
        break;
    }
  }

  void run();

private:
  //===------------------------------------------------------------------===//
  // Token plumbing
  //===------------------------------------------------------------------===//

  const Token &tok(unsigned Ahead = 0) const {
    size_t Idx = Pos + Ahead;
    return Idx < Toks.size() ? Toks[Idx] : Toks.back();
  }
  void bump() {
    if (Pos + 1 < Toks.size())
      ++Pos;
  }
  bool at(TokKind K, unsigned Ahead = 0) const { return tok(Ahead).is(K); }

  bool accept(TokKind K) {
    if (!at(K))
      return false;
    bump();
    return true;
  }

  bool expect(TokKind K, const char *Context) {
    if (accept(K))
      return true;
    Diag.error(tok().Loc, std::string("expected ") + tokKindName(K) + " " +
                              Context + ", found " + tokKindName(tok().Kind));
    return false;
  }

  void recoverTo(TokKind K) {
    while (!at(TokKind::Eof) && !at(K))
      bump();
    accept(K);
  }

  /// True for a token that can begin a statement — the anchors
  /// statement-boundary recovery stops at.
  bool atStmtStart() const {
    switch (tok().Kind) {
    case TokKind::LBrace:
    case TokKind::RBrace:
    case TokKind::KwVar:
    case TokKind::KwIf:
    case TokKind::KwWhile:
    case TokKind::KwFor:
    case TokKind::KwReturn:
    case TokKind::KwThrow:
    case TokKind::KwBreak:
    case TokKind::KwContinue:
    case TokKind::KwPrint:
    case TokKind::KwSuper:
    case TokKind::KwClass:
    case TokKind::KwDef:
      return true;
    default:
      return false;
    }
  }

  /// Statement-boundary synchronization: skips past the next ';' or
  /// stops before a token that can begin a statement (or '}' / Eof),
  /// so one malformed statement costs one located diagnostic instead
  /// of a cascade, and everything after the boundary still parses.
  void syncToStmtBoundary() {
    while (!at(TokKind::Eof)) {
      if (accept(TokKind::Semi))
        return;
      if (atStmtStart())
        return;
      bump();
    }
  }

  /// Consumes the statement-terminating ';' or reports one ranged
  /// diagnostic covering [StmtLoc, here] and synchronizes. \p Quiet
  /// suppresses the report when the statement already produced one —
  /// the boundary sync still runs so recovery is identical.
  void expectStmtSemi(SourceLoc StmtLoc, const char *Context, bool Quiet) {
    if (accept(TokKind::Semi))
      return;
    if (!Quiet)
      Diag.error(StmtLoc, tok().Loc,
                 std::string("expected ';' ") + Context + ", found " +
                     tokKindName(tok().Kind));
    syncToStmtBoundary();
  }

  //===------------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------------===//

  void parseClass();
  std::optional<MethodDeclAst> parseMethod(bool IsStatic);
  std::optional<FieldDeclAst> parseField(bool IsStatic);
  bool parseParams(std::vector<ParamAst> &Params);
  std::optional<TypeExprAst> parseType();

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  StmtAst *parseStmt();
  BlockStmt *parseBlock();
  StmtAst *parseVarDecl();
  StmtAst *parseIf();
  StmtAst *parseWhile();
  StmtAst *parseFor();
  StmtAst *parseSimpleStmt(bool ExpectSemi);

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  ExprAst *parseExpr();
  ExprAst *parseBinary(unsigned MinPrec);
  ExprAst *parseUnary();
  ExprAst *parsePostfix();
  ExprAst *parsePrimary();
  bool parseArgs(std::vector<ExprAst *> &Args);

  /// Attempts to parse a cast "(Type) operand" at the current '('.
  /// Returns null (with the position restored) when the parenthesis is
  /// not a cast.
  ExprAst *tryParseCast();

  ExprAst *errorExpr(SourceLoc Loc) {
    ExprAst *E = Module.createExpr<NullLitExpr>(Loc);
    E->Recovered = true;
    return E;
  }

  //===------------------------------------------------------------------===//
  // Nesting limit
  //===------------------------------------------------------------------===//

  /// One level of recursion into a nested statement or expression.
  struct Nested {
    explicit Nested(Parser &P) : P(P) {
      if (P.Depth == MaxNesting)
        throw NestingTooDeep{P.tok().Loc};
      ++P.Depth;
    }
    ~Nested() { --P.Depth; }
    Parser &P;
  };

  /// Operator chains grow their tree in a loop, not by recursion:
  /// checks the chain built so far against the levels above it.
  ExprAst *checkHeight(ExprAst *E) const {
    if (Depth + E->Height > MaxNesting + 1)
      throw NestingTooDeep{E->Loc};
    return E;
  }

  void reportTooDeep(const NestingTooDeep &E) {
    Diag.error(E.Loc, "statements and expressions nest deeper than " +
                          std::to_string(MaxNesting) + " levels");
  }

  std::vector<Token> Toks;
  size_t Pos = 0;
  unsigned Depth = 0; ///< Nested levels open at the current token.
  /// Highest operator precedence parseBinary may still take after an
  /// 'instanceof' (only looser operators may follow it); ~0u otherwise.
  unsigned PrecCap = ~0u;
  AstModule &Module;
  DiagnosticEngine &Diag;
};

} // namespace

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

void Parser::run() {
  while (!at(TokKind::Eof)) {
    if (at(TokKind::KwClass)) {
      parseClass();
    } else if (at(TokKind::KwDef)) {
      bump();
      if (auto M = parseMethod(/*IsStatic=*/true))
        Module.Functions.push_back(std::move(*M));
    } else {
      Diag.error(tok().Loc,
                 std::string("expected 'class' or 'def' at top level, "
                             "found ") +
                     tokKindName(tok().Kind));
      bump();
    }
  }
}

void Parser::parseClass() {
  bump(); // class
  ClassDeclAst Class;
  Class.Loc = tok().Loc;
  if (!at(TokKind::Ident)) {
    Diag.error(tok().Loc, "expected class name");
    recoverTo(TokKind::RBrace);
    return;
  }
  Class.Name = tok().Text;
  bump();
  if (accept(TokKind::KwExtends)) {
    if (!at(TokKind::Ident)) {
      Diag.error(tok().Loc, "expected superclass name after 'extends'");
    } else {
      Class.SuperName = tok().Text;
      bump();
    }
  }
  if (!expect(TokKind::LBrace, "to begin class body")) {
    recoverTo(TokKind::RBrace);
    return;
  }
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    bool IsStatic = accept(TokKind::KwStatic);
    if (accept(TokKind::KwVar)) {
      if (auto F = parseField(IsStatic))
        Class.Fields.push_back(std::move(*F));
    } else if (accept(TokKind::KwDef)) {
      if (auto M = parseMethod(IsStatic))
        Class.Methods.push_back(std::move(*M));
    } else {
      Diag.error(tok().Loc,
                 std::string("expected 'var' or 'def' in class body, "
                             "found ") +
                     tokKindName(tok().Kind));
      bump();
    }
  }
  expect(TokKind::RBrace, "to end class body");
  Module.Classes.push_back(std::move(Class));
}

std::optional<FieldDeclAst> Parser::parseField(bool IsStatic) {
  FieldDeclAst Field;
  Field.IsStatic = IsStatic;
  Field.Loc = tok().Loc;
  if (!at(TokKind::Ident)) {
    Diag.error(tok().Loc, "expected field name");
    recoverTo(TokKind::Semi);
    return std::nullopt;
  }
  Field.Name = tok().Text;
  bump();
  if (!expect(TokKind::Colon, "after field name")) {
    recoverTo(TokKind::Semi);
    return std::nullopt;
  }
  auto Type = parseType();
  if (!Type) {
    recoverTo(TokKind::Semi);
    return std::nullopt;
  }
  Field.Type = std::move(*Type);
  if (accept(TokKind::Assign)) {
    if (!IsStatic)
      Diag.error(tok().Loc, "only static fields may have initializers; "
                            "initialize instance fields in 'init'");
    try {
      Field.Init = parseExpr();
    } catch (const NestingTooDeep &E) {
      reportTooDeep(E);
      Field.Init = nullptr;
      recoverTo(TokKind::Semi);
      return Field;
    }
  }
  expect(TokKind::Semi, "after field declaration");
  return Field;
}

std::optional<MethodDeclAst> Parser::parseMethod(bool IsStatic) {
  MethodDeclAst M;
  M.IsStatic = IsStatic;
  M.Loc = tok().Loc;
  if (!at(TokKind::Ident)) {
    Diag.error(tok().Loc, "expected method name");
    recoverTo(TokKind::RBrace);
    return std::nullopt;
  }
  M.Name = tok().Text;
  bump();
  if (!expect(TokKind::LParen, "to begin parameter list"))
    return std::nullopt;
  if (!parseParams(M.Params))
    return std::nullopt;
  if (accept(TokKind::Colon)) {
    auto Type = parseType();
    if (!Type)
      return std::nullopt;
    M.HasReturnType = true;
    M.ReturnType = std::move(*Type);
  }
  if (!at(TokKind::LBrace)) {
    Diag.error(tok().Loc, "expected method body");
    return std::nullopt;
  }
  size_t BodyStart = Pos;
  try {
    M.Body = parseBlock();
  } catch (const NestingTooDeep &E) {
    // Keep the declaration (callers still resolve) without its body,
    // and resume after the body's closing brace.
    reportTooDeep(E);
    M.Body = nullptr;
    Pos = BodyStart;
    unsigned Open = 0;
    do {
      Open += at(TokKind::LBrace);
      Open -= at(TokKind::RBrace);
      bump();
    } while (Open && !at(TokKind::Eof));
  }
  return M;
}

bool Parser::parseParams(std::vector<ParamAst> &Params) {
  if (accept(TokKind::RParen))
    return true;
  while (true) {
    ParamAst P;
    P.Loc = tok().Loc;
    if (!at(TokKind::Ident)) {
      Diag.error(tok().Loc, "expected parameter name");
      recoverTo(TokKind::RParen);
      return false;
    }
    P.Name = tok().Text;
    bump();
    if (!expect(TokKind::Colon, "after parameter name")) {
      recoverTo(TokKind::RParen);
      return false;
    }
    auto Type = parseType();
    if (!Type) {
      recoverTo(TokKind::RParen);
      return false;
    }
    P.Type = std::move(*Type);
    Params.push_back(std::move(P));
    if (accept(TokKind::RParen))
      return true;
    if (!expect(TokKind::Comma, "between parameters")) {
      recoverTo(TokKind::RParen);
      return false;
    }
  }
}

std::optional<TypeExprAst> Parser::parseType() {
  TypeExprAst T;
  T.Loc = tok().Loc;
  switch (tok().Kind) {
  case TokKind::KwInt:
    T.BaseKind = TypeExprAst::Base::Int;
    break;
  case TokKind::KwBool:
    T.BaseKind = TypeExprAst::Base::Bool;
    break;
  case TokKind::KwString:
    T.BaseKind = TypeExprAst::Base::String;
    break;
  case TokKind::KwVoid:
    T.BaseKind = TypeExprAst::Base::Void;
    break;
  case TokKind::Ident:
    T.BaseKind = TypeExprAst::Base::Named;
    T.Name = tok().Text;
    break;
  default:
    Diag.error(tok().Loc, std::string("expected type, found ") +
                              tokKindName(tok().Kind));
    return std::nullopt;
  }
  bump();
  while (at(TokKind::LBracket) && at(TokKind::RBracket, 1)) {
    bump();
    bump();
    ++T.ArrayRank;
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

BlockStmt *Parser::parseBlock() {
  SourceLoc Loc = tok().Loc;
  expect(TokKind::LBrace, "to begin block");
  std::vector<StmtAst *> Stmts;
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    if (StmtAst *S = parseStmt())
      Stmts.push_back(S);
  }
  expect(TokKind::RBrace, "to end block");
  return Module.createStmt<BlockStmt>(std::move(Stmts), Loc);
}

StmtAst *Parser::parseStmt() {
  Nested Level(*this);
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokKind::LBrace:
    return parseBlock();
  case TokKind::KwVar:
    return parseVarDecl();
  case TokKind::KwIf:
    return parseIf();
  case TokKind::KwWhile:
    return parseWhile();
  case TokKind::KwFor:
    return parseFor();
  case TokKind::KwReturn: {
    unsigned Errs = Diag.errorCount();
    bump();
    ExprAst *Value = nullptr;
    if (!at(TokKind::Semi))
      Value = parseExpr();
    expectStmtSemi(Loc, "after return statement", Diag.errorCount() != Errs);
    return Module.createStmt<ReturnStmt>(Value, Loc);
  }
  case TokKind::KwThrow: {
    unsigned Errs = Diag.errorCount();
    bump();
    ExprAst *Value = parseExpr();
    expectStmtSemi(Loc, "after throw statement", Diag.errorCount() != Errs);
    return Module.createStmt<ThrowStmt>(Value, Loc);
  }
  case TokKind::KwBreak:
    bump();
    expectStmtSemi(Loc, "after break", /*Quiet=*/false);
    return Module.createStmt<BreakStmt>(Loc);
  case TokKind::KwContinue:
    bump();
    expectStmtSemi(Loc, "after continue", /*Quiet=*/false);
    return Module.createStmt<ContinueStmt>(Loc);
  case TokKind::KwPrint: {
    unsigned Errs = Diag.errorCount();
    bump();
    expect(TokKind::LParen, "after 'print'");
    ExprAst *Value = parseExpr();
    expect(TokKind::RParen, "after print argument");
    expectStmtSemi(Loc, "after print statement", Diag.errorCount() != Errs);
    return Module.createStmt<PrintStmt>(Value, Loc);
  }
  case TokKind::KwSuper: {
    unsigned Errs = Diag.errorCount();
    bump();
    expect(TokKind::LParen, "after 'super'");
    std::vector<ExprAst *> Args;
    parseArgs(Args);
    expectStmtSemi(Loc, "after super call", Diag.errorCount() != Errs);
    return Module.createStmt<SuperCallStmt>(std::move(Args), Loc);
  }
  case TokKind::Semi:
    bump(); // Empty statement.
    return nullptr;
  default:
    return parseSimpleStmt(/*ExpectSemi=*/true);
  }
}

StmtAst *Parser::parseVarDecl() {
  SourceLoc Loc = tok().Loc;
  bump(); // var
  if (!at(TokKind::Ident)) {
    Diag.error(tok().Loc, "expected variable name");
    recoverTo(TokKind::Semi);
    return nullptr;
  }
  std::string Name = tok().Text;
  bump();
  bool HasType = false;
  TypeExprAst Type;
  if (accept(TokKind::Colon)) {
    auto T = parseType();
    if (!T) {
      recoverTo(TokKind::Semi);
      return nullptr;
    }
    HasType = true;
    Type = std::move(*T);
  }
  if (!expect(TokKind::Assign, "(locals require an initializer)")) {
    syncToStmtBoundary();
    return nullptr;
  }
  unsigned Errs = Diag.errorCount();
  ExprAst *Init = parseExpr();
  expectStmtSemi(Loc, "after variable declaration", Diag.errorCount() != Errs);
  return Module.createStmt<VarDeclStmt>(std::move(Name), HasType,
                                        std::move(Type), Init, Loc);
}

StmtAst *Parser::parseIf() {
  SourceLoc Loc = tok().Loc;
  bump(); // if
  expect(TokKind::LParen, "after 'if'");
  ExprAst *Cond = parseExpr();
  expect(TokKind::RParen, "after if condition");
  StmtAst *Then = parseStmt();
  StmtAst *Else = nullptr;
  if (accept(TokKind::KwElse))
    Else = parseStmt();
  return Module.createStmt<IfStmt>(Cond, Then, Else, Loc);
}

StmtAst *Parser::parseWhile() {
  SourceLoc Loc = tok().Loc;
  bump(); // while
  expect(TokKind::LParen, "after 'while'");
  ExprAst *Cond = parseExpr();
  expect(TokKind::RParen, "after while condition");
  StmtAst *Body = parseStmt();
  return Module.createStmt<WhileStmt>(Cond, Body, Loc);
}

StmtAst *Parser::parseFor() {
  // for (init; cond; step) body  desugars to
  // { init; while (cond) { body; step; } }
  SourceLoc Loc = tok().Loc;
  bump(); // for
  expect(TokKind::LParen, "after 'for'");
  StmtAst *Init = nullptr;
  if (!at(TokKind::Semi)) {
    if (at(TokKind::KwVar))
      Init = parseVarDecl(); // Consumes the ';'.
    else
      Init = parseSimpleStmt(/*ExpectSemi=*/true);
  } else {
    bump();
  }
  ExprAst *Cond = nullptr;
  if (!at(TokKind::Semi))
    Cond = parseExpr();
  else
    Cond = Module.createExpr<BoolLitExpr>(true, tok().Loc);
  expect(TokKind::Semi, "after for condition");
  StmtAst *Step = nullptr;
  if (!at(TokKind::RParen))
    Step = parseSimpleStmt(/*ExpectSemi=*/false);
  expect(TokKind::RParen, "after for clauses");
  // The desugared body sits inside the while and its block.
  Nested InWhile(*this), InBlock(*this);
  StmtAst *Body = parseStmt();

  std::vector<StmtAst *> LoopBody;
  if (Body)
    LoopBody.push_back(Body);
  if (Step)
    LoopBody.push_back(Step);
  StmtAst *While = Module.createStmt<WhileStmt>(
      Cond, Module.createStmt<BlockStmt>(std::move(LoopBody), Loc), Loc);
  std::vector<StmtAst *> Outer;
  if (Init)
    Outer.push_back(Init);
  Outer.push_back(While);
  return Module.createStmt<BlockStmt>(std::move(Outer), Loc);
}

StmtAst *Parser::parseSimpleStmt(bool ExpectSemi) {
  // An expression statement or an assignment.
  SourceLoc Loc = tok().Loc;
  unsigned Errs = Diag.errorCount();
  ExprAst *E = parseExpr();
  StmtAst *Result;
  if (accept(TokKind::Assign)) {
    ExprAst *RHS = parseExpr();
    if (E->Kind != ExprKind::NameRef && E->Kind != ExprKind::FieldAccess &&
        E->Kind != ExprKind::Index)
      Diag.error(Loc, tok().Loc,
                 "left-hand side of assignment is not assignable");
    Result = Module.createStmt<AssignStmt>(E, RHS, Loc);
  } else {
    if (E->Kind != ExprKind::Call && E->Kind != ExprKind::NewObject &&
        E->Kind != ExprKind::Read && Diag.errorCount() == Errs)
      Diag.error(Loc, "expression statement has no effect");
    Result = Module.createStmt<ExprStmt>(E, Loc);
  }
  if (ExpectSemi)
    expectStmtSemi(Loc, "after statement", Diag.errorCount() != Errs);
  return Result;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprAst *Parser::parseExpr() {
  Nested Level(*this);
  ExprAst *E = parseBinary(1);
  PrecCap = ~0u; // An 'instanceof' cap ends with its expression.
  return E;
}

/// Precedence of binary operator token \p K (0 for any other token)
/// and its BinaryExpr opcode (unused for && || and instanceof). Every
/// binary operator is left-associative.
static std::pair<unsigned, BinaryExpr::Op> binaryOperator(TokKind K) {
  using Op = BinaryExpr::Op;
  switch (K) {
  case TokKind::PipePipe:
    return {1, Op::Eq};
  case TokKind::AmpAmp:
    return {2, Op::Eq};
  case TokKind::EqEq:
    return {3, Op::Eq};
  case TokKind::NotEq:
    return {3, Op::Ne};
  case TokKind::Lt:
    return {4, Op::Lt};
  case TokKind::Le:
    return {4, Op::Le};
  case TokKind::Gt:
    return {4, Op::Gt};
  case TokKind::Ge:
    return {4, Op::Ge};
  case TokKind::KwInstanceof:
    return {4, Op::Eq};
  case TokKind::Plus:
    return {5, Op::Add};
  case TokKind::Minus:
    return {5, Op::Sub};
  case TokKind::Star:
    return {6, Op::Mul};
  case TokKind::Slash:
    return {6, Op::Div};
  case TokKind::Percent:
    return {6, Op::Rem};
  default:
    return {0, Op::Eq};
  }
}

/// Precedence climbing: one frame per operand nesting level instead
/// of one per precedence level, which keeps deep parenthesization
/// cheap on the stack.
ExprAst *Parser::parseBinary(unsigned MinPrec) {
  ExprAst *LHS = parseUnary();
  while (true) {
    const TokKind K = tok().Kind;
    const auto [Prec, Op] = binaryOperator(K);
    if (!Prec || Prec < MinPrec || Prec > PrecCap)
      return LHS;
    SourceLoc Loc = tok().Loc;
    bump();
    if (K == TokKind::KwInstanceof) {
      // 'instanceof' takes a type, not an operand, so no tighter
      // operator may follow it; a failed type also ends the
      // relational operators. Only looser ones may come next.
      if (auto Type = parseType()) {
        LHS = checkHeight(
            Module.createExpr<InstanceOfExpr>(LHS, std::move(*Type), Loc));
        PrecCap = Prec;
      } else {
        PrecCap = Prec - 1;
      }
      continue;
    }
    PrecCap = ~0u;
    ExprAst *RHS = parseBinary(Prec + 1);
    if (K == TokKind::PipePipe || K == TokKind::AmpAmp)
      LHS = checkHeight(Module.createExpr<LogicalExpr>(
          K == TokKind::PipePipe ? LogicalExpr::Op::Or : LogicalExpr::Op::And,
          LHS, RHS, Loc));
    else
      LHS = checkHeight(Module.createExpr<BinaryExpr>(Op, LHS, RHS, Loc));
  }
}

ExprAst *Parser::tryParseCast() {
  // At '('. A cast is "( Type ) operand" where Type is a primitive or
  // class name with optional [] pairs, and the token after ')' begins
  // an operand. Backtrack otherwise.
  size_t Saved = Pos;
  SourceLoc Loc = tok().Loc;
  bump(); // (

  TypeExprAst Type;
  Type.Loc = tok().Loc;
  bool Prim = true;
  switch (tok().Kind) {
  case TokKind::KwInt:
    Type.BaseKind = TypeExprAst::Base::Int;
    break;
  case TokKind::KwBool:
    Type.BaseKind = TypeExprAst::Base::Bool;
    break;
  case TokKind::KwString:
    Type.BaseKind = TypeExprAst::Base::String;
    break;
  case TokKind::Ident:
    Type.BaseKind = TypeExprAst::Base::Named;
    Type.Name = tok().Text;
    Prim = false;
    break;
  default:
    Pos = Saved;
    return nullptr;
  }
  bump();
  while (at(TokKind::LBracket) && at(TokKind::RBracket, 1)) {
    bump();
    bump();
    ++Type.ArrayRank;
  }
  if (!at(TokKind::RParen)) {
    Pos = Saved;
    return nullptr;
  }
  // Token after ')' must begin an operand; this is what distinguishes
  // the cast "(Foo) x" from the parenthesized value "(foo)".
  switch (tok(1).Kind) {
  case TokKind::Ident:
  case TokKind::IntLit:
  case TokKind::StringLit:
  case TokKind::LParen:
  case TokKind::KwNew:
  case TokKind::KwThis:
  case TokKind::KwNull:
  case TokKind::KwTrue:
  case TokKind::KwFalse:
  case TokKind::KwReadLine:
  case TokKind::KwReadInt:
    break;
  default:
    // A primitive type name in parentheses can only be a cast; report
    // the missing operand rather than backtracking into nonsense.
    if (Prim || Type.ArrayRank > 0) {
      bump(); // )
      Diag.error(tok().Loc, "expected operand after cast");
      return errorExpr(Loc);
    }
    Pos = Saved;
    return nullptr;
  }
  bump(); // )
  Nested Level(*this);
  ExprAst *Sub = parseUnary();
  return Module.createExpr<CastExpr>(std::move(Type), Sub, Loc);
}

ExprAst *Parser::parseUnary() {
  if (at(TokKind::Bang) || at(TokKind::Minus)) {
    auto Op = at(TokKind::Bang) ? UnaryExpr::Op::Not : UnaryExpr::Op::Neg;
    SourceLoc Loc = tok().Loc;
    bump();
    Nested Level(*this);
    ExprAst *Sub = parseUnary();
    return Module.createExpr<UnaryExpr>(Op, Sub, Loc);
  }
  if (at(TokKind::LParen))
    if (ExprAst *Cast = tryParseCast())
      return Cast;
  return parsePostfix();
}

ExprAst *Parser::parsePostfix() {
  ExprAst *E = parsePrimary();
  while (true) {
    checkHeight(E);
    if (accept(TokKind::Dot)) {
      if (!at(TokKind::Ident)) {
        Diag.error(tok().Loc, "expected member name after '.'");
        return E;
      }
      std::string Member = tok().Text;
      SourceLoc MemberLoc = tok().Loc;
      bump();
      if (at(TokKind::LParen)) {
        bump();
        std::vector<ExprAst *> Args;
        parseArgs(Args);
        E = Module.createExpr<CallExprAst>(
            Module.createExpr<FieldAccessExpr>(E, std::move(Member),
                                               MemberLoc),
            std::move(Args), MemberLoc);
      } else {
        E = Module.createExpr<FieldAccessExpr>(E, std::move(Member),
                                               MemberLoc);
      }
    } else if (at(TokKind::LBracket)) {
      SourceLoc Loc = tok().Loc;
      bump();
      ExprAst *Idx = parseExpr();
      expect(TokKind::RBracket, "after array index");
      E = Module.createExpr<IndexExpr>(E, Idx, Loc);
    } else {
      return E;
    }
  }
}

bool Parser::parseArgs(std::vector<ExprAst *> &Args) {
  if (accept(TokKind::RParen))
    return true;
  while (true) {
    Args.push_back(parseExpr());
    if (accept(TokKind::RParen))
      return true;
    if (!expect(TokKind::Comma, "between arguments")) {
      recoverTo(TokKind::RParen);
      return false;
    }
  }
}

ExprAst *Parser::parsePrimary() {
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokKind::IntLit: {
    int64_t Value = tok().IntValue;
    bump();
    return Module.createExpr<IntLitExpr>(Value, Loc);
  }
  case TokKind::StringLit: {
    std::string Value = tok().Text;
    bump();
    return Module.createExpr<StrLitExpr>(std::move(Value), Loc);
  }
  case TokKind::KwTrue:
    bump();
    return Module.createExpr<BoolLitExpr>(true, Loc);
  case TokKind::KwFalse:
    bump();
    return Module.createExpr<BoolLitExpr>(false, Loc);
  case TokKind::KwNull:
    bump();
    return Module.createExpr<NullLitExpr>(Loc);
  case TokKind::KwThis:
    bump();
    return Module.createExpr<ThisExpr>(Loc);
  case TokKind::KwReadLine:
    bump();
    expect(TokKind::LParen, "after 'readLine'");
    expect(TokKind::RParen, "after 'readLine('");
    return Module.createExpr<ReadExpr>(/*IsLine=*/true, Loc);
  case TokKind::KwReadInt:
    bump();
    expect(TokKind::LParen, "after 'readInt'");
    expect(TokKind::RParen, "after 'readInt('");
    return Module.createExpr<ReadExpr>(/*IsLine=*/false, Loc);
  case TokKind::KwNew: {
    bump();
    if (at(TokKind::Ident) && at(TokKind::LParen, 1)) {
      std::string ClassName = tok().Text;
      bump();
      bump(); // (
      std::vector<ExprAst *> Args;
      parseArgs(Args);
      return Module.createExpr<NewObjectExpr>(std::move(ClassName),
                                              std::move(Args), Loc);
    }
    // new Elem[len] — parse the element base, then the sized bracket,
    // then trailing [] pairs that raise the element rank.
    TypeExprAst Elem;
    Elem.Loc = tok().Loc;
    switch (tok().Kind) {
    case TokKind::KwInt:
      Elem.BaseKind = TypeExprAst::Base::Int;
      break;
    case TokKind::KwBool:
      Elem.BaseKind = TypeExprAst::Base::Bool;
      break;
    case TokKind::KwString:
      Elem.BaseKind = TypeExprAst::Base::String;
      break;
    case TokKind::Ident:
      Elem.BaseKind = TypeExprAst::Base::Named;
      Elem.Name = tok().Text;
      break;
    default:
      Diag.error(tok().Loc, "expected class name or array element type "
                            "after 'new'");
      return errorExpr(Loc);
    }
    bump();
    if (!expect(TokKind::LBracket, "after array element type in 'new'"))
      return errorExpr(Loc);
    ExprAst *Len = parseExpr();
    expect(TokKind::RBracket, "after array length");
    while (at(TokKind::LBracket) && at(TokKind::RBracket, 1)) {
      bump();
      bump();
      ++Elem.ArrayRank;
    }
    return Module.createExpr<NewArrayExpr>(std::move(Elem), Len, Loc);
  }
  case TokKind::Ident: {
    std::string Name = tok().Text;
    bump();
    if (at(TokKind::LParen)) {
      bump();
      std::vector<ExprAst *> Args;
      parseArgs(Args);
      return Module.createExpr<CallExprAst>(
          Module.createExpr<NameRefExpr>(std::move(Name), Loc),
          std::move(Args), Loc);
    }
    return Module.createExpr<NameRefExpr>(std::move(Name), Loc);
  }
  case TokKind::LParen: {
    bump();
    ExprAst *E = parseExpr();
    expect(TokKind::RParen, "to close parenthesized expression");
    return E;
  }
  default:
    Diag.error(Loc, std::string("expected expression, found ") +
                        tokKindName(tok().Kind));
    // Leave statement-boundary tokens for the statement-level
    // recovery: consuming a ';' here would make the quiet
    // post-statement sync swallow the NEXT (well-formed) statement,
    // and consuming a '}' would unbalance the enclosing block.
    if (!at(TokKind::Semi) && !at(TokKind::RBrace) && !at(TokKind::Eof))
      bump();
    return errorExpr(Loc);
  }
}

bool tsl::parseModule(std::string_view Source, AstModule &Module,
                      DiagnosticEngine &Diag) {
  unsigned Before = Diag.errorCount();
  Parser P(Source, Module, Diag);
  P.run();
  return Diag.errorCount() == Before;
}
