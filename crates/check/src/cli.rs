//! The one command-line vocabulary of `eirene-bench`. A command's
//! settings are a [`Cli`] value with a mode — a fuzz leg or a scale
//! preset — picked by a switch anywhere on the line, and one table of
//! [`Flag`]s per mode. The same table parses a line ([`parse`]), prints
//! settings back as the line that parses into them ([`command`]) and
//! writes the usage line ([`usage`]), so the three cannot drift apart.

use std::fmt::Write as _;

/// Settings a command line describes.
pub trait Cli: Sized + 'static {
    type Mode: Copy + PartialEq + 'static;
    /// Every mode. The first has no switch: a line naming none picks it.
    const MODES: &'static [Self::Mode];
    fn switch(mode: Self::Mode) -> Option<&'static str>;
    /// The mode's defaults: what its switch alone sets.
    fn defaults(mode: Self::Mode) -> Self;
    fn mode(&self) -> Self::Mode;
    /// The mode's flags, in usage order.
    fn flags(mode: Self::Mode) -> Vec<&'static Flag<Self>>;
    /// What a printed line starts with, e.g. `eirene-bench serve`.
    fn head(&self) -> String;
}

/// One command-line flag: its spellings and the setting behind it.
pub struct Flag<T: 'static> {
    /// Accepted spellings; printed lines use the first.
    pub names: &'static [&'static str],
    pub kind: FlagKind<T>,
}

pub enum FlagKind<T: 'static> {
    /// Usage placeholder, the setting as printed, and its parser.
    Value(
        &'static str,
        fn(&T) -> String,
        fn(&mut T, &str) -> Option<()>,
    ),
    /// Whether the switch is in effect, and what it sets.
    Switch(fn(&T) -> bool, fn(&mut T)),
}

/// A table entry for a field. `flag!(["--on"], on)` is a switch setting a
/// `bool`. `flag!(["--n"] "N", n)` parses and prints the field with
/// `FromStr`/`Display`; `Some(n)` wraps an `Option`, `[n]` a
/// comma-separated `Vec`, and a trailing `, then f` also sets the `bool`
/// field `f`. `flag!(@value ["--x"] "X", get, |s, v| set)` spells out the
/// rest.
#[macro_export]
macro_rules! flag {
    ([$($name:literal),+], $($field:ident).+) => {
        $crate::cli::Flag {
            names: &[$($name),+],
            kind: $crate::cli::FlagKind::Switch(|s| s.$($field).+, |s| s.$($field).+ = true),
        }
    };
    ([$($name:literal),+] $arg:literal, [$($field:ident).+]) => {
        $crate::flag!(@value [$($name),+] $arg,
            |s| s.$($field).+.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
            |s, v| s.$($field).+ = v.split(',').map(str::parse).collect::<Result<_, _>>().ok()?)
    };
    ([$($name:literal),+] $arg:literal, Some($($field:ident).+) $(, then $also:ident)?) => {
        $crate::flag!(@value [$($name),+] $arg,
            |s| s.$($field).+.as_ref().map(ToString::to_string).unwrap_or_default(),
            |s, v| { s.$($field).+ = Some(v.parse().ok()?); $(s.$also = true;)? })
    };
    ([$($name:literal),+] $arg:literal, $($field:ident).+) => {
        $crate::flag!(@value [$($name),+] $arg, |s| s.$($field).+.to_string(),
            |s, v| s.$($field).+ = v.parse().ok()?)
    };
    (@value [$($name:literal),+] $arg:literal, $get:expr, |$s:ident, $v:ident| $set:expr) => {
        $crate::cli::Flag {
            names: &[$($name),+],
            kind: $crate::cli::FlagKind::Value($arg, $get, |$s, $v| {
                $set;
                Some(())
            }),
        }
    };
}

/// The mode a switch anywhere on the line picks, so its position does not
/// matter; two different switches are an error.
fn pick<T: Cli>(args: &[String]) -> Result<T::Mode, String> {
    let named = |s: &&str| args.iter().any(|a| a == s);
    let on_line = |&m: &T::Mode| T::switch(m).filter(named).map(|s| (m, s));
    let found: Vec<(T::Mode, &str)> = T::MODES.iter().filter_map(on_line).collect();
    match found[..] {
        [] => Ok(T::MODES[0]),
        [(mode, _)] => Ok(mode),
        [(_, a), (_, b), ..] => Err(format!("{a} and {b} cannot be combined")),
    }
}

/// Parses a command line (without its head): the mode first, then every
/// other argument through the mode's table.
pub fn parse<T: Cli>(args: &[String]) -> Result<T, String> {
    let mode = pick::<T>(args)?;
    let mut value = T::defaults(mode);
    let flags = T::flags(mode);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if T::switch(mode) == Some(arg.as_str()) {
            continue;
        }
        let flag = flags
            .iter()
            .find(|f| f.names.contains(&arg.as_str()))
            .ok_or_else(|| format!("{} takes no {arg}", line_head(&value)))?;
        match flag.kind {
            FlagKind::Value(_, _, set) => {
                let v = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                set(&mut value, v).ok_or_else(|| format!("bad {arg} value {v}"))?;
            }
            FlagKind::Switch(_, set) => set(&mut value),
        }
    }
    Ok(value)
}

/// The head and the mode's switch.
fn line_head<T: Cli>(value: &T) -> String {
    let switch = T::switch(value.mode()).map(|s| format!(" {s}"));
    value.head() + &switch.unwrap_or_default()
}

/// The command line [`parse`] reads back into exactly these settings: the
/// head, the mode's switch, then every flag whose setting is off the
/// mode's default.
pub fn command<T: Cli>(value: &T) -> String {
    let default = T::defaults(value.mode());
    let mut line = line_head(value);
    for flag in T::flags(value.mode()) {
        let _ = match flag.kind {
            FlagKind::Value(_, get, _) if get(value) != get(&default) => {
                write!(line, " {} {}", flag.names[0], get(value))
            }
            FlagKind::Switch(on, _) if on(value) && !on(&default) => {
                write!(line, " {}", flag.names[0])
            }
            _ => Ok(()),
        };
    }
    line
}

/// The usage line of `modes`, which share one flag table: the head, the
/// modes' switches (one required, several a choice), then every flag.
pub fn usage<T: Cli>(modes: &[T::Mode]) -> String {
    let mut line = T::defaults(modes[0]).head();
    let switches: Vec<&str> = modes.iter().filter_map(|&m| T::switch(m)).collect();
    let _ = match switches[..] {
        [] => Ok(()),
        [one] if modes.len() == 1 => write!(line, " {one}"),
        _ => write!(line, " [{}]", switches.join("|")),
    };
    for flag in T::flags(modes[0]) {
        let names = flag.names.join("|");
        let _ = match flag.kind {
            FlagKind::Value(arg, ..) => write!(line, " [{names} {arg}]"),
            FlagKind::Switch(..) => write!(line, " [{names}]"),
        };
    }
    line
}
