//! Pretty-printing of P programs back to concrete syntax.
//!
//! The printer emits exactly the textual syntax accepted by `p-parser`, so
//! `parse(print(program))` reproduces the program (a property test in the
//! parser crate checks this for the whole corpus).

use std::fmt::Write as _;

use crate::{
    BinOp, EventDecl, Expr, ExprKind, ForeignFnDecl, Interner, MachineDecl, Program, StateDecl,
    Stmt, StmtKind, Symbol, TransitionKind, Ty,
};

/// Pretty-prints a whole program.
///
/// # Examples
///
/// ```
/// let src = r#"
///     event tick;
///     machine Clock {
///         state Run {
///             entry { raise(tick); }
///             on tick goto Run;
///         }
///     }
///     main Clock();
/// "#;
/// let text = p_ast::print_program(&p_parser::parse(src).unwrap());
/// assert!(text.contains("machine Clock"));
/// assert!(text.contains("on tick goto Run;"));
/// ```
pub fn print_program(program: &Program) -> String {
    Printer::new(&program.interner).program(program)
}

/// Pretty-prints a single statement (used in diagnostics and codegen
/// comments).
pub fn print_stmt(stmt: &Stmt, interner: &Interner) -> String {
    let mut p = Printer::new(interner);
    p.stmt(stmt);
    p.out
}

/// Pretty-prints a single expression.
pub fn print_expr(expr: &Expr, interner: &Interner) -> String {
    let mut p = Printer::new(interner);
    p.expr(expr, 0);
    p.out
}

struct Printer<'a> {
    interner: &'a Interner,
    out: String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn new(interner: &'a Interner) -> Printer<'a> {
        Printer {
            interner,
            out: String::new(),
            indent: 0,
        }
    }

    fn name(&self, sym: Symbol) -> &'a str {
        self.interner.resolve(sym)
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn program(mut self, p: &Program) -> String {
        for ev in &p.events {
            self.event(ev);
        }
        if !p.events.is_empty() {
            self.out.push('\n');
        }
        for m in &p.machines {
            self.machine(m);
            self.out.push('\n');
        }
        let mut main = format!("main {}(", self.name(p.main.machine));
        for (i, init) in p.main.inits.iter().enumerate() {
            if i > 0 {
                main.push_str(", ");
            }
            let _ = write!(main, "{} = {}", self.name(init.var), {
                let mut q = Printer::new(self.interner);
                q.expr(&init.value, 0);
                q.out
            });
        }
        main.push_str(");");
        self.line(&main);
        self.out
    }

    fn event(&mut self, ev: &EventDecl) {
        let text = if ev.payload == Ty::Void {
            format!("event {};", self.name(ev.name))
        } else {
            format!("event {} : {};", self.name(ev.name), ev.payload)
        };
        self.line(&text);
    }

    fn machine(&mut self, m: &MachineDecl) {
        let header = format!(
            "{}machine {} {{",
            if m.ghost { "ghost " } else { "" },
            self.name(m.name)
        );
        self.line(&header);
        self.indent += 1;

        for v in &m.vars {
            let text = format!(
                "{}var {} : {};",
                if v.ghost { "ghost " } else { "" },
                self.name(v.name),
                v.ty
            );
            self.line(&text);
        }
        for f in &m.foreign {
            self.foreign_fn(f);
        }
        for a in &m.actions {
            let name = self.name(a.name).to_owned();
            self.line(&format!("action {} {{", name));
            self.indent += 1;
            self.stmt_lines(&a.body);
            self.indent -= 1;
            self.line("}");
        }
        for s in &m.states {
            self.state(m, s);
        }

        self.indent -= 1;
        self.line("}");
    }

    fn foreign_fn(&mut self, f: &ForeignFnDecl) {
        let mut text = format!("foreign fn {}(", self.name(f.name));
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                text.push_str(", ");
            }
            match p.name {
                Some(n) => {
                    let _ = write!(text, "{} : {}", self.name(n), p.ty);
                }
                None => {
                    let _ = write!(text, "{}", p.ty);
                }
            }
        }
        let _ = write!(text, ") : {}", f.ret);
        match &f.model_body {
            None => {
                text.push(';');
                self.line(&text);
            }
            Some(body) => {
                text.push_str(" {");
                self.line(&text);
                self.indent += 1;
                self.stmt_lines(body);
                self.indent -= 1;
                self.line("}");
            }
        }
    }

    fn state(&mut self, m: &MachineDecl, s: &StateDecl) {
        self.line(&format!("state {} {{", self.name(s.name)));
        self.indent += 1;

        if !s.deferred.is_empty() {
            let list: Vec<&str> = s.deferred.iter().map(|&e| self.name(e)).collect();
            self.line(&format!("defer {};", list.join(", ")));
        }
        if !s.postponed.is_empty() {
            let list: Vec<&str> = s.postponed.iter().map(|&e| self.name(e)).collect();
            self.line(&format!("postpone {};", list.join(", ")));
        }
        if s.entry.kind != StmtKind::Skip {
            self.line("entry {");
            self.indent += 1;
            self.stmt_lines(&s.entry);
            self.indent -= 1;
            self.line("}");
        }
        if s.exit.kind != StmtKind::Skip {
            self.line("exit {");
            self.indent += 1;
            self.stmt_lines(&s.exit);
            self.indent -= 1;
            self.line("}");
        }
        // Transitions and bindings are stored on the machine; print the ones
        // whose source is this state, in declaration order.
        for t in m.transitions.iter().filter(|t| t.from == s.name) {
            let verb = match t.kind {
                TransitionKind::Step => "goto",
                TransitionKind::Call => "push",
            };
            self.line(&format!(
                "on {} {} {};",
                self.name(t.event),
                verb,
                self.name(t.to)
            ));
        }
        for b in m.bindings.iter().filter(|b| b.state == s.name) {
            self.line(&format!(
                "on {} do {};",
                self.name(b.event),
                self.name(b.action)
            ));
        }

        self.indent -= 1;
        self.line("}");
    }

    /// Prints a statement as a sequence of lines (flattening one block
    /// level).
    fn stmt_lines(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.stmt_lines(st);
                }
            }
            _ => {
                let mut q = Printer::new(self.interner);
                q.indent = self.indent;
                q.stmt(s);
                self.out.push_str(&q.out);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Skip => self.line("skip;"),
            StmtKind::Assign { dst, value } => {
                let text = format!("{} := {};", self.name(*dst), self.expr_str(value));
                self.line(&text);
            }
            StmtKind::New {
                dst,
                machine,
                inits,
            } => {
                let mut text = format!("{} := new {}(", self.name(*dst), self.name(*machine));
                for (i, init) in inits.iter().enumerate() {
                    if i > 0 {
                        text.push_str(", ");
                    }
                    let _ = write!(
                        text,
                        "{} = {}",
                        self.name(init.var),
                        self.expr_str(&init.value)
                    );
                }
                text.push_str(");");
                self.line(&text);
            }
            StmtKind::Delete => self.line("delete;"),
            StmtKind::Send {
                target,
                event,
                payload,
            } => {
                let text = match payload {
                    None => format!("send({}, {});", self.expr_str(target), self.name(*event)),
                    Some(p) => format!(
                        "send({}, {}, {});",
                        self.expr_str(target),
                        self.name(*event),
                        self.expr_str(p)
                    ),
                };
                self.line(&text);
            }
            StmtKind::Raise { event, payload } => {
                let text = match payload {
                    None => format!("raise({});", self.name(*event)),
                    Some(p) => format!("raise({}, {});", self.name(*event), self.expr_str(p)),
                };
                self.line(&text);
            }
            StmtKind::Leave => self.line("leave;"),
            StmtKind::Return => self.line("return;"),
            StmtKind::Assert(e) => {
                let text = format!("assert({});", self.expr_str(e));
                self.line(&text);
            }
            StmtKind::Block(stmts) => {
                self.line("{");
                self.indent += 1;
                for st in stmts {
                    self.stmt(st);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::If { cond, then, els } => {
                let head = format!("if ({}) {{", self.expr_str(cond));
                self.line(&head);
                self.indent += 1;
                self.stmt_lines(then);
                self.indent -= 1;
                let empty_else = matches!(&els.kind, StmtKind::Block(b) if b.is_empty())
                    || els.kind == StmtKind::Skip;
                if empty_else {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    self.stmt_lines(els);
                    self.indent -= 1;
                    self.line("}");
                }
            }
            StmtKind::While { cond, body } => {
                let head = format!("while ({}) {{", self.expr_str(cond));
                self.line(&head);
                self.indent += 1;
                self.stmt_lines(body);
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::CallState(state) => {
                let text = format!("call {};", self.name(*state));
                self.line(&text);
            }
            StmtKind::ForeignCall { dst, func, args } => {
                let mut text = String::new();
                if let Some(d) = dst {
                    let _ = write!(text, "{} := ", self.name(*d));
                }
                let _ = write!(text, "{}(", self.name(*func));
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        text.push_str(", ");
                    }
                    text.push_str(&self.expr_str(a));
                }
                text.push_str(");");
                self.line(&text);
            }
        }
    }

    fn expr_str(&self, e: &Expr) -> String {
        let mut q = Printer::new(self.interner);
        q.expr(e, 0);
        q.out
    }

    /// Prints `e`, parenthesizing when the surrounding precedence
    /// `min_prec` requires it.
    fn expr(&mut self, e: &Expr, min_prec: u8) {
        match &e.kind {
            ExprKind::This => self.out.push_str("this"),
            ExprKind::Msg => self.out.push_str("msg"),
            ExprKind::Arg => self.out.push_str("arg"),
            ExprKind::Null => self.out.push_str("null"),
            ExprKind::Bool(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::Int(v) => {
                if *v < 0 {
                    // Negative literals print as a subtraction (the parser
                    // has no negative literals), parenthesized exactly when
                    // a binary subtraction would be.
                    let prec = BinOp::Sub.precedence();
                    let need_parens = prec < min_prec;
                    if need_parens {
                        self.out.push('(');
                    }
                    let _ = write!(self.out, "0 - {}", v.unsigned_abs());
                    if need_parens {
                        self.out.push(')');
                    }
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::Name(s) => self.out.push_str(self.name(*s)),
            ExprKind::Nondet => self.out.push('*'),
            ExprKind::Unary(op, inner) => {
                self.out.push_str(op.symbol());
                self.out.push('(');
                self.expr(inner, 0);
                self.out.push(')');
            }
            ExprKind::Binary(op, a, b) => {
                let prec = op.precedence();
                let need_parens = prec < min_prec;
                if need_parens {
                    self.out.push('(');
                }
                self.expr(a, prec);
                let _ = write!(self.out, " {} ", op.symbol());
                // Right operand at prec+1: all our binary operators print
                // left-associatively.
                self.expr(b, prec + 1);
                if need_parens {
                    self.out.push(')');
                }
            }
            ExprKind::ForeignCall(f, args) => {
                self.out.push_str(self.name(*f));
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a, 0);
                }
                self.out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_operators_with_precedence() {
        let mut names = Interner::new();
        let x = names.intern("x");
        // (x + 1) * 2 needs parens; x + 1 * 2 does not.
        let e1 = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::name(x), Expr::int(1)),
            Expr::int(2),
        );
        assert_eq!(print_expr(&e1, &names), "(x + 1) * 2");
        let e2 = Expr::binary(
            BinOp::Add,
            Expr::name(x),
            Expr::binary(BinOp::Mul, Expr::int(1), Expr::int(2)),
        );
        assert_eq!(print_expr(&e2, &names), "x + 1 * 2");
        // A negative literal prints as the subtraction it parses back as.
        let e3 = Expr::binary(BinOp::Sub, Expr::name(x), Expr::int(-1));
        assert_eq!(print_expr(&e3, &names), "x - (0 - 1)");
    }

    #[test]
    fn prints_statements() {
        let mut names = Interner::new();
        let e = names.intern("E");
        let x = names.intern("x");
        let s = Stmt::block(vec![
            Stmt::assign(x, Expr::int(3)),
            Stmt::new(StmtKind::Send {
                target: Expr::this(),
                event: e,
                payload: Some(Expr::name(x)),
            }),
            Stmt::raise(e),
        ]);
        let text = print_stmt(&s, &names);
        assert!(text.contains("x := 3;"));
        assert!(text.contains("send(this, E, x);"));
        assert!(text.contains("raise(E);"));
    }

    #[test]
    fn program_includes_all_sections() {
        use crate::{ActionBinding, ActionDecl, MainDecl, Span, VarDecl};

        let mut names = Interner::new();
        let evt = names.intern("evt");
        let g = names.intern("G");
        let drop = names.intern("drop");
        let s = names.intern("S");
        let machine = MachineDecl {
            name: g,
            ghost: true,
            vars: vec![VarDecl {
                name: names.intern("t"),
                ty: Ty::Id,
                ghost: true,
                span: Span::SYNTHETIC,
            }],
            actions: vec![ActionDecl {
                name: drop,
                body: Stmt::skip(),
                span: Span::SYNTHETIC,
            }],
            states: vec![StateDecl {
                deferred: vec![evt],
                postponed: vec![evt],
                entry: Stmt::leave(),
                ..StateDecl::empty(s)
            }],
            transitions: Vec::new(),
            bindings: vec![ActionBinding {
                state: s,
                event: evt,
                action: drop,
                span: Span::SYNTHETIC,
            }],
            foreign: Vec::new(),
            span: Span::SYNTHETIC,
        };
        let p = Program {
            events: vec![EventDecl {
                name: evt,
                payload: Ty::Int,
                span: Span::SYNTHETIC,
            }],
            machines: vec![machine],
            main: MainDecl {
                machine: g,
                inits: Vec::new(),
                span: Span::SYNTHETIC,
            },
            interner: names,
        };
        let text = print_program(&p);
        assert!(text.contains("event evt : int;"));
        assert!(text.contains("ghost machine G {"));
        assert!(text.contains("ghost var t : id;"));
        assert!(text.contains("defer evt;"));
        assert!(text.contains("postpone evt;"));
        assert!(text.contains("on evt do drop;"));
        assert!(text.contains("main G();"));
    }
}
