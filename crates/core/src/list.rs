//! A persistent list: the list values of both tree-walking
//! interpreters (`systemf::eval` and `implicit_opsem`).
//!
//! [`List::cons`] and [`List::split_first`] are O(1) and copy nothing:
//! a tail is shared by every list built on it, never copied. A list
//! built in bulk ([`List::from_vec`], `collect`) is one block, not one
//! cell per element; a handle into a block records the offset of its
//! first element, so the tail of a block is O(1) as well. A list is
//! two words, so a value enum holding one stays three words wide.
//!
//! Dropping a list is iterative, so a million-cell list drops on a
//! small stack.

use std::fmt;
use std::rc::Rc;

/// A persistent list of `T`.
pub struct List<T> {
    node: Option<Rc<Node<T>>>,
    /// The offset of the first element in a [`Node::Block`]; 0 for a
    /// [`Node::Cell`].
    at: usize,
}

enum Node<T> {
    /// One element and the rest of the list.
    Cell(T, List<T>),
    /// A bulk-built list: never empty, and the end of its list.
    Block(Vec<T>),
}

impl<T> List<T> {
    /// The empty list.
    pub const fn new() -> List<T> {
        List { node: None, at: 0 }
    }

    /// `head :: tail`, sharing `tail`.
    pub fn cons(head: T, tail: List<T>) -> List<T> {
        List {
            node: Some(Rc::new(Node::Cell(head, tail))),
            at: 0,
        }
    }

    /// The list of `xs`, in order, as one block.
    pub fn from_vec(xs: Vec<T>) -> List<T> {
        if xs.is_empty() {
            return List::new();
        }
        List {
            node: Some(Rc::new(Node::Block(xs))),
            at: 0,
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.node.is_none()
    }

    /// The number of elements (walks the cells).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        loop {
            match cur.node.as_deref() {
                None => return n,
                Some(Node::Cell(_, tail)) => {
                    n += 1;
                    cur = tail;
                }
                Some(Node::Block(xs)) => return n + xs.len() - cur.at,
            }
        }
    }

    /// The head and the (shared) tail; `None` for the empty list.
    pub fn split_first(&self) -> Option<(&T, List<T>)> {
        match self.node.as_deref()? {
            Node::Cell(head, tail) => Some((head, tail.clone())),
            Node::Block(xs) => {
                let tail = if self.at + 1 < xs.len() {
                    List {
                        node: self.node.clone(),
                        at: self.at + 1,
                    }
                } else {
                    List::new()
                };
                Some((&xs[self.at], tail))
            }
        }
    }

    /// The elements, first to last.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            node: self.node.as_deref(),
            at: self.at,
        }
    }

    /// The address of the first element, which identifies a
    /// non-empty list for as long as it is alive: two handles with
    /// the same address are the same list (its first cell, or the
    /// same element of the same block). `None` for the empty list,
    /// which has no identity.
    pub fn first_addr(&self) -> Option<usize> {
        self.iter().next().map(|x| x as *const T as usize)
    }
}

impl<T> Clone for List<T> {
    fn clone(&self) -> List<T> {
        List {
            node: self.node.clone(),
            at: self.at,
        }
    }
}

impl<T> Default for List<T> {
    fn default() -> List<T> {
        List::new()
    }
}

impl<T> Drop for List<T> {
    fn drop(&mut self) {
        // A long spine of uniquely owned cells would otherwise drop
        // recursively, one stack frame per cell.
        let mut cur = self.node.take();
        while let Some(rc) = cur {
            match Rc::try_unwrap(rc) {
                Ok(Node::Cell(_head, mut tail)) => cur = tail.node.take(),
                Ok(Node::Block(_)) | Err(_) => break,
            }
        }
    }
}

impl<T> FromIterator<T> for List<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> List<T> {
        List::from_vec(iter.into_iter().collect())
    }
}

impl<T: fmt::Debug> fmt::Debug for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`List`]'s elements.
pub struct Iter<'a, T> {
    node: Option<&'a Node<T>>,
    at: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        match self.node? {
            Node::Cell(head, tail) => {
                self.node = tail.node.as_deref();
                self.at = tail.at;
                Some(head)
            }
            Node::Block(xs) => {
                let x = &xs[self.at];
                self.at += 1;
                if self.at == xs.len() {
                    self.node = None;
                }
                Some(x)
            }
        }
    }
}

impl<'a, T> IntoIterator for &'a List<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(xs: &List<i64>) -> Vec<i64> {
        xs.iter().copied().collect()
    }

    #[test]
    fn cons_shares_the_tail() {
        let tail: List<i64> = vec![2, 3].into_iter().collect();
        let xs = List::cons(1, tail.clone());
        assert_eq!(items(&xs), [1, 2, 3]);
        assert_eq!(xs.len(), 3);
        let (h, t) = xs.split_first().unwrap();
        assert_eq!(*h, 1);
        assert_eq!(t.first_addr(), tail.first_addr());
    }

    #[test]
    fn a_block_splits_in_place() {
        let xs = List::from_vec(vec![1, 2, 3]);
        let (h, t) = xs.split_first().unwrap();
        assert_eq!((*h, items(&t), t.len()), (1, vec![2, 3], 2));
        let (_, t2) = t.split_first().unwrap();
        let (last, nil) = t2.split_first().unwrap();
        assert_eq!(*last, 3);
        assert!(nil.is_empty() && nil.split_first().is_none());
        assert_eq!(nil.first_addr(), None);
        // Each suffix of a block is a list of its own.
        assert_ne!(xs.first_addr(), t.first_addr());
        assert_eq!(t.first_addr(), t.clone().first_addr());
    }

    #[test]
    fn the_empty_vector_is_the_empty_list() {
        let xs: List<i64> = List::from_vec(Vec::new());
        assert!(xs.is_empty());
        assert_eq!(xs.len(), 0);
        assert_eq!(format!("{xs:?}"), "[]");
    }

    #[test]
    fn a_million_cells_drop_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let mut xs = List::new();
                for i in 0..1_000_000 {
                    xs = List::cons(i, xs);
                }
                assert_eq!(xs.len(), 1_000_000);
                drop(xs);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn a_list_is_two_words() {
        assert_eq!(
            std::mem::size_of::<List<i64>>(),
            2 * std::mem::size_of::<usize>()
        );
    }
}
