//! Shrinking a failing generated program to a small `.p` file.

use p_ast::{Program, Stmt, StmtKind};

use crate::generated::{program_src, Caps, UNCAPPED};

/// A smaller program on which `still_fails` holds, from the seed of a
/// [`crate::generated_src`] program on which it does. First the seed is
/// generated again under smaller shapes: fewer machines, events and
/// values, and a lower send budget, each lowered while the failure
/// persists. Then declarations, initializers, transitions, bindings,
/// `defer`s and statements are dropped, and `if`s replaced by a branch,
/// one edit at a time, each kept if the failure persists. The result
/// prints through [`p_ast::print_program`] as a `.p` file.
///
/// `still_fails` sees programs that parse but may not typecheck: it
/// should typecheck them first, so that only the failure it looks for
/// counts. If it does not hold on the seed's own program, that program
/// is returned.
pub fn shrink(seed: u64, mut still_fails: impl FnMut(&Program) -> bool) -> Program {
    let parse = |src: &str| crate::parse(src, "shrunk");
    let mut src = program_src(seed, false, UNCAPPED);
    if !still_fails(&parse(&src)) {
        return parse(&src);
    }
    // From the generator's largest draws down to its floors.
    let mut caps: Caps = [4, 3, 3, 3];
    for (field, floor) in [2, 1, 1, 0].into_iter().enumerate() {
        while caps[field] > floor {
            caps[field] -= 1;
            let smaller = program_src(seed, false, caps);
            if smaller != src && !still_fails(&parse(&smaller)) {
                caps[field] += 1;
                break;
            }
            src = smaller;
        }
    }
    let mut best = parse(&src);
    // A drop can make an earlier one possible (a state no transition
    // names any more), so passes repeat until one drops nothing.
    let mut dropped = true;
    while dropped {
        dropped = false;
        let mut k = 0;
        while let Some(smaller) = without(&best, k) {
            if still_fails(&smaller) {
                (best, dropped) = (smaller, true);
            } else {
                k += 1;
            }
        }
    }
    best
}

/// `program` after its `k`-th edit, or `None` past the last: a machine,
/// an initializer of `main`, a state, action, variable, transition or
/// binding dropped, then a deferred or postponed event, or an edit of a
/// statement.
fn without(program: &Program, mut k: usize) -> Option<Program> {
    let mut p = program.clone();
    if drop_at(&mut p.machines, &mut k) || drop_at(&mut p.main.inits, &mut k) {
        return Some(p);
    }
    for m in &mut p.machines {
        if drop_at(&mut m.states, &mut k)
            || drop_at(&mut m.actions, &mut k)
            || drop_at(&mut m.vars, &mut k)
            || drop_at(&mut m.transitions, &mut k)
            || drop_at(&mut m.bindings, &mut k)
        {
            return Some(p);
        }
        for s in &mut m.states {
            if drop_at(&mut s.deferred, &mut k)
                || drop_at(&mut s.postponed, &mut k)
                || edit_stmt(&mut s.entry, &mut k)
            {
                return Some(p);
            }
        }
        if m.actions.iter_mut().any(|a| edit_stmt(&mut a.body, &mut k)) {
            return Some(p);
        }
    }
    None
}

/// Removes `items[k]` if `k` is in range; otherwise counts `k` past them.
fn drop_at<T>(items: &mut Vec<T>, k: &mut usize) -> bool {
    if *k < items.len() {
        items.remove(*k);
        return true;
    }
    *k -= items.len();
    false
}

/// The `k`-th edit inside `s`: a statement of a block dropped, an `if`
/// replaced by one of its branches, an initializer of a `new` dropped.
fn edit_stmt(s: &mut Stmt, k: &mut usize) -> bool {
    match &mut s.kind {
        StmtKind::Block(items) => {
            drop_at(items, k) || items.iter_mut().any(|item| edit_stmt(item, k))
        }
        StmtKind::If { then, els, .. } if *k < 2 => {
            *s = if *k == 0 { &**then } else { &**els }.clone();
            true
        }
        StmtKind::If { then, els, .. } => {
            *k -= 2;
            edit_stmt(then, k) || edit_stmt(els, k)
        }
        StmtKind::New { inits, .. } => drop_at(inits, k),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failure that needs one `defer` and nothing else shrinks to a
    /// program of two machines, one event and one `defer`, that prints
    /// back to itself.
    #[test]
    fn a_failing_seed_shrinks_to_what_the_failure_needs() {
        let seed = (0..)
            .find(|&s| crate::generated_src(s).matches("defer").count() > 1)
            .unwrap();
        let shrunk = shrink(seed, |p| {
            p_typecheck::check(p).is_ok() && p_ast::print_program(p).contains("defer")
        });
        let text = p_ast::print_program(&shrunk);
        let reprinted = p_ast::print_program(&p_parser::parse(&text).unwrap());
        assert_eq!(reprinted, text);
        assert_eq!(
            (shrunk.machines.len(), shrunk.events.len()),
            (2, 1),
            "{text}"
        );
        assert_eq!(text.matches("defer").count(), 1, "{text}");
        assert!(!text.contains("send(") && !text.contains("goto"), "{text}");
        assert!(text.lines().count() <= 25, "{text}");
    }
}
